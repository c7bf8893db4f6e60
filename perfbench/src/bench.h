#pragma once

/**
 * @file
 * Shared pieces of the end-to-end benchmark: input generation, the
 * correctness oracle, span tracing, the warehouse under test, and the
 * workload entry points. Everything here drives the library from
 * outside, through its public headers; nothing in the library is
 * instrumented for the benchmark.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "server/client.h"
#include "server/server.h"
#include "service/warehouse_manager.h"
#include "workloads/runner.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start);
double median(std::vector<double> values);
/** Linear-interpolated quantile, q in [0, 1]. */
double quantile(std::vector<double> values, double q);
/** Peak resident set of this process, MiB. */
double peakRssMb();
/** Bytes of regular files under @p dir, recursively. */
std::uint64_t dirBytes(const std::string &dir);
void removeTree(const std::string &dir);
/** Worker threads and connections the load may use (nproc). */
unsigned loadThreadBudget();

// ------------------------------------------------------------ tracing

/**
 * In-memory span recorder. A span is recorded around one call into a
 * layer's public function: name, start, end, parent span (the span
 * open on the same thread when it started) and a request id shared by
 * the spans of one benchmark operation. Spans are kept per thread and
 * written as a Chrome trace at the end of the run.
 */
class Tracer
{
  public:
    struct Span {
        const char *name = "";
        std::uint64_t start_ns = 0;
        std::uint64_t end_ns = 0;
        std::uint64_t id = 0;
        std::uint64_t parent = 0;
        std::uint64_t request = 0;
        std::uint32_t tid = 0;
    };

    /** RAII scope: one span when the tracer is recording. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, const char *name, std::uint64_t request);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_ = nullptr;
        Span span_;
    };

    /** Spans are recorded only while recording() is true. */
    void setRecording(bool on) { recording_.store(on); }
    bool recording() const { return recording_.load(); }

    std::vector<Span> spans() const;
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct ThreadBuffer {
        std::uint32_t tid = 0;
        std::vector<Span> spans;
    };
    ThreadBuffer &buffer();

    std::atomic<bool> recording_{false};
    std::atomic<std::uint64_t> next_id_{1};
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

// ------------------------------------------------------------- inputs

/** Corpus ids: runs go to the corpus of their framework. */
inline const char *const kCorpora[2] = {"torch", "jax"};

/** One run to profile: its id, configuration and target corpus. */
struct RunSpec {
    std::string run_id;
    dc::workloads::RunConfig config;
    int corpus = 0; ///< Index into kCorpora.
};

/** Runs in one cycle of the config mix. */
constexpr std::size_t kMixCycle = dc::workloads::kNumWorkloads * 2 * 2 * 2;

/**
 * The config mix: every model x framework x platform x profiler mode
 * (DeepContext / DeepContext-Native), shuffled by @p seed once per
 * cycle of 80 runs, with PC sampling on a quarter of each cycle. The
 * seed picks the order and each run's own seed; every whole cycle has
 * the same make-up. Run @p index gets the id <prefix><index>.
 */
RunSpec makeRunSpec(std::uint64_t seed, std::size_t index,
                    const std::string &id_prefix);

/** What the simulated device reported for a run, apart from the profiler. */
struct RunFacts {
    std::string run_id;
    int corpus = 0;
    int model = 0;    ///< WorkloadId index.
    int platform = 0; ///< PlatformSel index.
    std::uint64_t gpu_ns = 0;
    std::uint64_t kernels = 0;
};

/** A profiled, serialized run ready to ingest. */
struct ProfiledRun {
    RunFacts facts;
    std::string text;
    double profiled_s = 0.0;   ///< runWorkload with the profiler.
    double plain_s = 0.0;      ///< runWorkload with ProfilerMode::kNone.
    double serialize_s = 0.0;
    std::uint64_t paths = 0;   ///< Call paths the profiler inserted.
    std::uint64_t callpath_requests = 0;
    std::uint64_t callpath_hits = 0;
    bool twin_equal = true; ///< Profiled and plain runs agree.
};

/** Profiled and unprofiled runs of one config report the same device figures. */
bool sameDeviceFigures(const dc::workloads::RunResult &profiled,
                       const dc::workloads::RunResult &plain);

/**
 * Profile @p spec, run it again unprofiled, serialize the profile.
 * With @p profile set, the profile is handed back unserialized (text
 * empty), so the caller can time serialize() as part of its own step.
 */
ProfiledRun profileRun(const RunSpec &spec, Tracer *tracer,
                       std::uint64_t request,
                       std::unique_ptr<dc::prof::ProfileDb> *profile =
                           nullptr);

// ------------------------------------------------------------- oracle

/** Filter keys the oracle keeps running sums for. */
struct FilterKey {
    int model = -1;    ///< -1 = any.
    int platform = -1; ///< -1 = any.
    dc::service::QueryFilter toFilter() const;
    int index() const; ///< 0 = unfiltered, 1..10 models, 11..12 platforms.
    static constexpr int kCount = 13;
};

/** Expected sums: GPU nanoseconds and kernel launches. */
struct Sums {
    std::uint64_t gpu_ns = 0;
    std::uint64_t kernels = 0;
    bool operator==(const Sums &) const = default;
};

/**
 * Independent record of every run sent to the warehouse, in send
 * order (one writer at a time). Readers see a consistent prefix: a
 * query sent when `acked` runs were acknowledged and answered when
 * `sent` runs had been sent must reflect a prefix j with
 * acked <= j <= sent, since the single writer waits for each ack
 * before it sends the next run.
 */
class Oracle
{
  public:
    explicit Oracle(std::size_t capacity = 1 << 15);

    /** Writer: record @p facts as sent (before the request goes out). */
    void markSent(const RunFacts &facts);
    /** Writer: the oldest unacked run was acknowledged. */
    void markAcked();

    std::size_t sent() const { return sent_.load(std::memory_order_acquire); }
    std::size_t acked() const
    {
        return acked_.load(std::memory_order_acquire);
    }

    /** Sums over runs [0, prefix) of @p corpus that match @p key. */
    Sums sums(int corpus, const FilterKey &key, std::size_t prefix) const;
    /** Run ids of @p corpus among runs [0, prefix). */
    std::vector<std::string> runIds(int corpus, std::size_t prefix) const;

    /**
     * Self-test hook: pretend run @p index was never sent, so every
     * expected sum that covers it is off by that run.
     */
    void forget(std::size_t index);

  private:
    std::size_t capacity_;
    std::unique_ptr<RunFacts[]> runs_;
    /// cum_[corpus][key][j]: sums over runs [0, j).
    std::vector<std::vector<std::vector<Sums>>> cum_;
    std::atomic<std::size_t> sent_{0};
    std::atomic<std::size_t> acked_{0};
};

/** The prefix window a read may reflect. */
struct Window {
    std::size_t lo = 0; ///< Acked before the request was sent.
    std::size_t hi = 0; ///< Sent when the answer arrived.
};

// The checks. Each returns "" when the answer accounts for exactly the
// runs the oracle expects, else a description of the mismatch.
std::string checkTopKernels(const Oracle &oracle, int corpus,
                            const FilterKey &key, Window window,
                            const std::vector<dc::server::KernelRow> &rows,
                            std::uint32_t k);
std::string
checkFederatedTopKernels(const Oracle &oracle, Window window,
                         const std::vector<dc::server::KernelRow> &rows,
                         std::uint32_t k);
std::string checkMerged(const Oracle &oracle, int corpus, Window window,
                        const std::string &text);
std::string checkDiffRuns(const RunFacts &a, const RunFacts &b,
                          const std::string &text);
std::string checkDiffCorpus(const Oracle &oracle, const RunFacts &run,
                            Window window, const std::string &text);
std::string checkFederatedDiff(const Oracle &oracle, Window window,
                               const std::string &text);
std::string checkFlame(const Oracle &oracle, int corpus, Window window,
                       const std::string &html);
std::string checkTwin(const ProfiledRun &run);
/** Recovered run ids and full-corpus sums after a restart. */
std::string checkRecovered(const Oracle &oracle, int corpus,
                           const std::vector<std::string> &run_ids,
                           const std::vector<dc::server::KernelRow> &rows,
                           std::uint32_t k);

// ---------------------------------------------------------- warehouse

/** k large enough that TOP_KERNELS returns every kernel of a corpus. */
constexpr std::uint32_t kAllKernels = 4096;

/**
 * The system under test: a WireServer over a durable WarehouseManager
 * (log_sync on) on loopback, rooted inside the benchmark's work dir.
 */
class Warehouse
{
  public:
    explicit Warehouse(std::string root);
    ~Warehouse();
    Warehouse(const Warehouse &) = delete;
    Warehouse &operator=(const Warehouse &) = delete;

    /** Build the manager (WAL replay happens on open) and serve it. */
    bool start(bool create_corpora, std::string *error);
    /** Graceful drain, then stop the server and close the manager. */
    void shutdown();

    dc::service::WarehouseManager &manager() { return *manager_; }
    /** Time start() spent in WarehouseManager::create/open. */
    double openSeconds() const { return open_s_; }
    std::uint16_t port() const { return server_->port(); }
    const std::string &root() const { return root_; }
    bool connect(dc::server::WireClient *client, int corpus,
                 std::string *error) const;

  private:
    std::string root_;
    std::unique_ptr<dc::service::WarehouseManager> manager_;
    std::unique_ptr<dc::server::WireServer> server_;
    double open_s_ = 0.0;
};

/** STATS of one corpus as key -> value. */
std::map<std::string, std::uint64_t>
fetchStats(dc::server::WireClient &client);

// ---------------------------------------------------------- workloads

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir = ".bench_build";
};

/** One metric as printed: value and unit. */
struct Metric {
    double value = 0.0;
    std::string unit;
};

struct Result {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors; ///< First few check failures.
    std::map<std::string, Metric> metrics;
};

/** What the single-layer side measurements run on. */
struct SideInputs {
    const std::vector<ProfiledRun> *runs = nullptr; ///< Ingested inputs.
    dc::service::WarehouseManager *manager = nullptr; ///< Live, warm.
    std::uint16_t port = 0;       ///< The live server.
    std::string work_dir;         ///< Scratch dir on the corpus filesystem.
    Tracer *tracer = nullptr;
};

/**
 * Time single layers by side calls on the run's own inputs: parse, WAL
 * append + sync, view hit / refresh / rebuild on a side store, merge,
 * flame graph build and HTML, analyzer diff, federated diff on the live
 * manager, and ping round trips. Adds per-layer metrics to @p result.
 */
void measureSideLayers(const SideInputs &inputs, Result *result);

/** Run one workload; @p start is the process's start time. */
Result runWorkload(const Options &options, Clock::time_point start);

/** Perturb the oracle and the corpus; each check must report failure. */
int runSelfTest(const Options &options);

} // namespace perfbench
