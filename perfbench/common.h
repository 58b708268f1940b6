/**
 * @file
 * Shared pieces of the perfbench driver: the result record every
 * workload fills, host-clock helpers, exact percentiles and digests,
 * and the benchmark-side span recorder used by traced runs.
 *
 * Two clocks appear throughout. Host time (std::chrono::steady_clock)
 * is what the simulator costs to run and is noisy; simulated time
 * (bisc::Tick, ns) is what the modelled hardware would take and
 * repeats exactly for a fixed seed.
 */

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "db/minidb.h"
#include "db/types.h"
#include "sisc/env.h"
#include "util/common.h"

namespace pb {

/** The paper's seed week; this seed is checked against reference.json. */
constexpr std::uint64_t kDefaultSeed = 20160618;

struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Why an operation failed. Only kIncorrect makes a run incorrect:
 *  the others are typed refusals or a documented defect, counted in
 *  the failed share but not hidden from it. */
enum class FailKind { kIncorrect, kKnownDefect, kRejected, kInfeasible };

/** One operation that did not produce its reference result. */
struct Failure
{
    std::string op;
    std::string why;
    FailKind kind = FailKind::kIncorrect;
};

/** Everything one workload run reports. */
struct Result
{
    /** Distinct operations of the workload. Repetitions re-run the
     *  same operations and do not add to it, so the count (and the
     *  failed share) depends on the seed only, not on host speed. */
    std::uint64_t attempted = 0;
    std::vector<Failure> failures;
    /** Distinct operations that failed in any repetition: an operation
     *  failing two checks, or in two repetitions, counts once. */
    std::set<std::string> failed_ops;
    /** False when a check failed that no documented defect explains
     *  (wrong rows, reference digest mismatch, non-determinism). */
    bool correct = true;
    std::map<std::string, Metric> metrics;
    /** Digests of every simulated output, for the self-test. */
    std::map<std::string, std::string> digests;
    std::vector<std::string> notes;

    void
    fail(std::string op, std::string why,
         FailKind kind = FailKind::kIncorrect)
    {
        if (kind == FailKind::kIncorrect)
            correct = false;
        failed_ops.insert(op);
        failures.push_back({std::move(op), std::move(why), kind});
    }

    void
    set(const std::string &name, double v, const std::string &unit)
    {
        metrics[name] = Metric{v, unit};
    }
};

/** Fixed per-run settings parsed from the command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 30.0;
    bool trace = false;
    /** Self-test: exactly this many repetitions, no time budget. */
    int reps = 0;
    std::string reference;  ///< reference.json path
    std::string out_dir;    ///< trace / details output directory
};

/** Reference digests of the default seed, keyed "<workload>/<op>". */
std::map<std::string, std::string> loadReference(const std::string &path);

// ----- host clock -----

inline double
nowS()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

/** Median of @p v (mean of the middle pair); 0 when empty. */
double median(std::vector<double> v);

/** Nearest-rank percentile of @p v (sorted copy), @p p in (0, 100]. */
double percentile(std::vector<double> v, double p);

// ----- digests -----

/** FNV-1a accumulator over the canonical text form of values. */
class Digest
{
  public:
    void add(const std::string &s);
    void add(std::uint64_t v);
    void addRow(const bisc::db::Row &row);
    void addRows(const std::vector<bisc::db::Row> &rows);
    std::string hex() const;

  private:
    std::uint64_t h_ = 14695981039346656037ull;
};

// ----- device-stack counters -----

/**
 * The device stack's always-on counters after a run, summed over the
 * drives of @p env (exportStats plus the kernel's metrics registry):
 * nand.pages_read, nand.channel_busy_ms, ftl.map_lookups,
 * hil.dma_to_host_bytes, hil.messages, pm.scans, fs.reads,
 * fiber.spawns, rt.modules_loaded, sisc.port_recv_wait_p99_us and
 * slet.port_send_wait_p99_us (worst drive).
 */
std::map<std::string, double> deviceCounters(bisc::sisc::Env &env);

/** Sum of every registry counter named @p name or "<scope>.<name>". */
double registryCounter(bisc::sisc::Env &env, const std::string &name);

// ----- benchmark-side spans (traced runs only) -----

/**
 * In-memory span log. Spans nest by a single stack, so they may only
 * be opened from the host fiber (or outside the simulation), never
 * from concurrently running job fibers. Off (and free) by default.
 */
class Tracer
{
  public:
    static Tracer &get();

    bool on = false;
    int run = 0;

    int open(const char *name);
    void close(int id);

    /** Total duration and self time (duration minus direct children)
     *  per span name. */
    std::map<std::string, std::pair<double, double>> totals() const;

    /** Sum of the durations of every span named @p name. */
    double total(const std::string &name) const;

    /** Write every span plus @p extra_json (a JSON object body
     *  without braces, may be empty) to @p path. */
    void write(const std::string &path,
               const std::string &extra_json) const;

  private:
    struct SpanRec
    {
        std::string name;
        double start = 0;  ///< host seconds
        double end = 0;
        int parent = -1;
        int run = 0;  ///< repetition the span belongs to
    };

    std::vector<SpanRec> spans_;
    std::vector<int> stack_;
};

/** RAII span; a no-op unless Tracer::get().on. */
class Span
{
  public:
    explicit Span(const char *name)
        : id_(Tracer::get().on ? Tracer::get().open(name) : -1)
    {}
    ~Span()
    {
        if (id_ >= 0)
            Tracer::get().close(id_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    int id_;
};

// ----- workloads and probes -----

/**
 * The traced run's layer probes (README "Layer probes"), run on the
 * workload's own populated system after its timed body: host ns per
 * unit of work for the db executor operators, row decode, batched
 * device reads, the pattern matcher, host Boyer-Moore, a host<->device
 * port round trip, SSDlet instantiation, kernel sleep/wake and fiber
 * switches. @p log_path names a web log on drive 0 (empty: none, the
 * grep probe then scans table pages).
 */
std::map<std::string, double> runLayerProbes(bisc::sisc::Env &env,
                                             bisc::db::MiniDb &db,
                                             const std::string &log_path);

Result runTpchSuite(const Options &opt);
Result runSkewedMixed(const Options &opt);
Result runServeOpenLoop(const Options &opt);

/** Known-defect reproducers (README "Known defects"). */
int reproWeblogGrep(std::uint64_t seed);
int reproUnifiedServe();

/** Check that serve_open_loop's population reproduces serve::runServe
 *  at the default seed (event-log hashes equal). */
int checkServeEquivalence();

}  // namespace pb

#endif  // PERFBENCH_COMMON_H_
