// The three workloads. Each builds a seeded durable warehouse, drives
// it from a writer and/or reader connections for the timed phase,
// then drains it, restarts it on the same root and checks what came
// back. Every answer is checked against the oracle.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <random>
#include <thread>
#include <unistd.h>

#include "bench.h"
#include "common/strings.h"
#include "profiler/metrics.h"
#include "profiler/profile_db.h"

namespace perfbench {

namespace ds = dc::server;

namespace {

/// Seed corpus size: three whole cycles of the 80-config mix.
constexpr std::size_t kSeedRuns = 3 * kMixCycle;
/// Write phases ack a fixed number of runs, so the corpus, and with it
/// peak RSS and stored bytes, has the same size in every run whatever
/// the throughput. The count is the whole cycles that a writer at these
/// rates (runs/s, about the reference figures in the README) needs to
/// fill its share of --seconds.
constexpr double kProducerRate = 64.0;     ///< pipeline: profile + ingest
constexpr double kSoloWriterRate = 192.0;  ///< query_mix: writer alone
constexpr double kMixedWriterRate = 120.0; ///< ingest_query_mix
/// Restarts on the drained root; recovery time is the fastest one.
constexpr int kRestarts = 3;
/// Tracing alternates on and off in slices of this length, so one
/// traced run also measures what tracing costs.
constexpr double kTraceSlice_s = 0.5;

/// Seed salt so the pipeline's runs differ from the seed corpus.
constexpr std::uint64_t kPipelineSalt = 0x5eed0001;

enum Op {
    kIngest,
    kTopK,
    kTopKFiltered,
    kDiffRuns,
    kDiffCorpus,
    kFlame,
    kMerged,
    kFedTopK,
    kFedDiff,
    kOwnTopK, ///< The writer's topK after its own ingest.
    kPublish, ///< Profile in hand -> first topK that includes it.
    kOpCount
};

const char *const kOpSpan[kOpCount] = {
    "WireClient.ingest",         "WireClient.topKernels",
    "WireClient.topKernels.filtered", "WireClient.diff.runs",
    "WireClient.diff.corpus",    "WireClient.flameGraph",
    "WireClient.merged",         "WireClient.federatedTopKernels",
    "WireClient.federatedDiff",  "WireClient.topKernels.own",
    "publish",
};

/** A reader connection's query mix: operations per deck. */
struct Mix {
    int weight[kOpCount] = {};
    bool model_filters = false; ///< Filtered topK also draws models.
};

/**
 * The readers' mixes. The first connection is an analyst asking the
 * heavy questions one at a time; the others are dashboards polling
 * TOP_KERNELS. A lone reader asks both mixes. The weights are assumed
 * traffic, not measured from any deployment (see README).
 *
 * Reading alone, the readers use every opcode. Filtered topKs draw
 * from 2 platforms and 10 models (Zipf-skewed), and run-vs-corpus
 * diffs add per-run exclusion views, so the per-corpus filter set is
 * larger than the 8-view cache while most draws hit. Beside a writer,
 * the analyst asks FLAME_GRAPH and FEDERATED_DIFF, and the dashboards
 * poll only unfiltered and per-platform topK, a set that fits the
 * cache.
 */
std::vector<Mix>
readerMixes(bool beside_writer, unsigned readers)
{
    Mix analyst, dashboard;
    if (!beside_writer) {
        analyst.weight[kMerged] = 4;
        analyst.weight[kFlame] = 16;
        analyst.weight[kDiffRuns] = 16;
        analyst.weight[kDiffCorpus] = 6;
        analyst.weight[kFedDiff] = 8;
        dashboard.weight[kTopK] = 90;
        dashboard.weight[kTopKFiltered] = 60;
        dashboard.weight[kFedTopK] = 10;
        dashboard.model_filters = true;
    } else {
        analyst.weight[kFlame] = 16;
        analyst.weight[kFedDiff] = 20;
        dashboard.weight[kTopK] = 100;
        dashboard.weight[kTopKFiltered] = 50;
    }
    if (readers == 1) {
        for (int op = 0; op < kOpCount; ++op)
            analyst.weight[op] += dashboard.weight[op];
        analyst.model_filters = dashboard.model_filters;
        return {analyst};
    }
    std::vector<Mix> mixes(readers, dashboard);
    mixes[0] = analyst;
    return mixes;
}

/** Per-thread measurements, merged after the threads are joined. */
struct Samples {
    /// Latencies per operation kind and corpus.
    std::vector<double> us[kOpCount][2];
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t mismatches = 0;
    std::vector<std::string> errors;
    /// Reader queries completed with tracing on / off.
    std::uint64_t done_traced = 0;
    std::uint64_t done_untraced = 0;
    /// Runs this thread profiled: the paper's overhead inputs.
    double profiled_s = 0.0;
    double plain_s = 0.0;
    std::vector<double> serialize_s;
    std::uint64_t serialized_bytes = 0;
    std::uint64_t paths = 0;
    std::uint64_t runs_profiled = 0;
    std::uint64_t callpath_requests = 0;
    std::uint64_t callpath_hits = 0;
    std::uint64_t runs_acked = 0;
    std::uint64_t text_bytes = 0;
    /// Wall time of the write loop.
    double write_s = 0.0;

    void note(const std::string &error)
    {
        if (errors.size() < 8)
            errors.push_back(error);
    }
    void mismatch(const std::string &error)
    {
        ++mismatches;
        note(error);
    }
    void failure(const std::string &what, const ds::WireClient::Result &r)
    {
        ++failed;
        note(what + " failed: " +
             (r.ok ? "status " + std::to_string(static_cast<int>(r.status)) +
                         " " + r.payload.substr(0, 120)
                   : r.error));
    }
    void addProfiled(const ProfiledRun &run)
    {
        profiled_s += run.profiled_s;
        plain_s += run.plain_s;
        paths += run.paths;
        ++runs_profiled;
        callpath_requests += run.callpath_requests;
        callpath_hits += run.callpath_hits;
        if (!run.text.empty()) {
            serialize_s.push_back(run.serialize_s);
            serialized_bytes += run.text.size();
        }
        if (!run.twin_equal)
            mismatch(checkTwin(run));
    }
    void merge(Samples &&other)
    {
        for (int op = 0; op < kOpCount; ++op) {
            for (int c = 0; c < 2; ++c)
                us[op][c].insert(us[op][c].end(), other.us[op][c].begin(),
                                 other.us[op][c].end());
        }
        attempted += other.attempted;
        failed += other.failed;
        mismatches += other.mismatches;
        for (std::string &error : other.errors)
            note(error);
        done_traced += other.done_traced;
        done_untraced += other.done_untraced;
        profiled_s += other.profiled_s;
        plain_s += other.plain_s;
        serialize_s.insert(serialize_s.end(), other.serialize_s.begin(),
                           other.serialize_s.end());
        serialized_bytes += other.serialized_bytes;
        paths += other.paths;
        runs_profiled += other.runs_profiled;
        callpath_requests += other.callpath_requests;
        callpath_hits += other.callpath_hits;
        runs_acked += other.runs_acked;
        text_bytes += other.text_bytes;
        write_s += other.write_s;
    }
};

/** State the load threads share. */
struct Shared {
    Options options;
    Oracle oracle;
    Tracer *tracer = nullptr;
    Warehouse *warehouse = nullptr;
    std::atomic<bool> stop{false};
    /// Seed runs per corpus: DIFF operands.
    std::vector<RunFacts> seed_runs[2];
};

double
usSince(Clock::time_point start)
{
    return secondsSince(start) * 1e6;
}

/**
 * One durable ingest of @p text, then one topK on its corpus; the topK
 * must already include the run. Publish latency runs from
 * @p publish_start (the moment the profile was in hand) to that answer.
 */
bool
ingestAndQuery(Shared &shared, ds::WireClient &client, const RunFacts &facts,
               const std::string &text, Clock::time_point publish_start,
               std::uint64_t request, Samples &out)
{
    client.setCorpus(kCorpora[facts.corpus]);
    shared.oracle.markSent(facts);
    ++out.attempted;
    ds::WireClient::Result result;
    {
        Tracer::Scope span(shared.tracer, kOpSpan[kIngest], request);
        const Clock::time_point start = Clock::now();
        result = client.ingest(facts.run_id, text, /*durable=*/true);
        out.us[kIngest][facts.corpus].push_back(usSince(start));
    }
    if (!result.ok || result.status != ds::Status::kOk) {
        out.failure("durable INGEST " + facts.run_id, result);
        return false;
    }
    shared.oracle.markAcked();
    ++out.runs_acked;
    out.text_bytes += text.size();

    ++out.attempted;
    std::vector<ds::KernelRow> rows;
    const Window window{shared.oracle.acked(), shared.oracle.sent()};
    {
        Tracer::Scope span(shared.tracer, kOpSpan[kOwnTopK], request);
        const Clock::time_point start = Clock::now();
        result = client.topKernels(kAllKernels,
                                   dc::prof::metric_names::kGpuTime, {},
                                   &rows);
        out.us[kOwnTopK][facts.corpus].push_back(usSince(start));
    }
    out.us[kPublish][facts.corpus].push_back(usSince(publish_start));
    if (!result.ok || result.status != ds::Status::kOk) {
        out.failure("TOP_KERNELS after ingest", result);
        return false;
    }
    const std::string error = checkTopKernels(
        shared.oracle, facts.corpus, FilterKey{}, window, rows, kAllKernels);
    if (!error.empty())
        out.mismatch("after ingest of " + facts.run_id + ": " + error);
    return true;
}

/**
 * Ingest @p count pre-serialized runs back to back, cycling @p runs:
 * under their own ids (the seed corpus) or under fresh ones.
 */
void
ingestLoop(Shared &shared, const std::vector<ProfiledRun> &runs,
           std::size_t count, bool fresh_ids, Samples &out)
{
    ds::WireClient client;
    std::string error;
    if (!shared.warehouse->connect(&client, 0, &error)) {
        out.note("writer connect: " + error);
        ++out.failed;
        return;
    }
    for (std::size_t i = 0; i < count; ++i) {
        const ProfiledRun &run = runs[i % runs.size()];
        RunFacts facts = run.facts;
        if (fresh_ids)
            facts.run_id = dc::strformat("i%zu", i);
        Tracer::Scope step(shared.tracer, "writer.step", i);
        if (!ingestAndQuery(shared, client, facts, run.text, Clock::now(),
                            i, out)) {
            return; // the oracle's send order is broken past a failure
        }
    }
}

/**
 * The pipeline writer, @p count steps of: profile, run plain,
 * serialize, ingest, query.
 */
void
pipelineLoop(Shared &shared, std::size_t count, Samples &out)
{
    ds::WireClient client;
    std::string error;
    if (!shared.warehouse->connect(&client, 0, &error)) {
        out.note("writer connect: " + error);
        ++out.failed;
        return;
    }
    for (std::size_t i = 0; i < count; ++i) {
        Tracer::Scope step(shared.tracer, "pipeline.step", i);
        const RunSpec spec =
            makeRunSpec(shared.options.seed ^ kPipelineSalt, i, "p");
        std::unique_ptr<dc::prof::ProfileDb> profile;
        ProfiledRun run = profileRun(spec, shared.tracer, i, &profile);
        const Clock::time_point publish_start = Clock::now();
        {
            Tracer::Scope span(shared.tracer, "ProfileDb.serialize", i);
            run.text = profile->serialize();
            run.serialize_s = secondsSince(publish_start);
        }
        profile.reset();
        out.addProfiled(run);
        if (!ingestAndQuery(shared, client, run.facts, run.text,
                            publish_start, i, out)) {
            return;
        }
    }
}

/** Zipf(1.2) draw over 10 ranks. */
int
zipfRank(std::mt19937_64 &rng)
{
    static const std::vector<double> cumulative = [] {
        std::vector<double> cum;
        double total = 0.0;
        for (int r = 0; r < 10; ++r) {
            total += 1.0 / std::pow(r + 1.0, 1.2);
            cum.push_back(total);
        }
        for (double &c : cum)
            c /= total;
        return cum;
    }();
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    for (int r = 0; r < 10; ++r) {
        if (u < cumulative[static_cast<std::size_t>(r)])
            return r;
    }
    return 9;
}

/**
 * One reader connection: a closed loop over whole decks of the mix,
 * until stop or, if @p decks is not 0, for that many decks. A deck
 * holds every operation kind exactly as often as its weight, split
 * evenly between the two corpora, shuffled per deck; the reader stops
 * only between decks, so every run asks the same mix.
 */
void
readerLoop(Shared &shared, const Mix &mix, int reader, Samples &out,
           std::size_t decks = 0)
{
    ds::WireClient client;
    std::string error;
    if (!shared.warehouse->connect(&client, 0, &error)) {
        out.note("reader connect: " + error);
        ++out.failed;
        return;
    }
    std::mt19937_64 rng(shared.options.seed * 1000003ull + 17ull * reader);

    std::vector<std::pair<int, int>> deck; // (op, corpus)
    for (int op = 0; op < kOpCount; ++op) {
        for (int i = 0; i < mix.weight[op]; ++i)
            deck.emplace_back(op, i % 2);
    }
    // A MERGED reply only changes with the corpus: a reply equal to one
    // already verified at the same prefix is not parsed again.
    std::size_t verified_merged[2] = {SIZE_MAX, SIZE_MAX};
    std::size_t verified_merged_hash[2] = {0, 0};

    const Oracle &oracle = shared.oracle;
    std::uint64_t request = 0;
    const auto ask = [&](int op, int corpus) {
        ++request;
        client.setCorpus(kCorpora[corpus]);
        const std::vector<RunFacts> &runs = shared.seed_runs[corpus];
        FilterKey key;
        if (op == kTopKFiltered) {
            if (!mix.model_filters || rng() % 2 == 0)
                key.platform = static_cast<int>(rng() % 2);
            else
                key.model = zipfRank(rng); // popularity by WorkloadId
        }
        const RunFacts &run_a = runs[rng() % runs.size()];
        const RunFacts &run_b = runs[rng() % runs.size()];
        // Run-vs-corpus diffs draw from three runs per corpus.
        const RunFacts &hot = runs[rng() % 3];

        std::vector<ds::KernelRow> rows;
        ds::WireClient::Result result;
        const bool traced =
            shared.tracer != nullptr && shared.tracer->recording();
        ++out.attempted;
        const std::size_t lo = oracle.acked();
        const Clock::time_point start = Clock::now();
        {
            Tracer::Scope span(shared.tracer, kOpSpan[op], request);
            switch (op) {
            case kTopK:
            case kTopKFiltered:
                result = client.topKernels(kAllKernels,
                                           dc::prof::metric_names::kGpuTime,
                                           key.toFilter(), &rows);
                break;
            case kDiffRuns:
                result = client.diff(run_a.run_id, run_b.run_id);
                break;
            case kDiffCorpus:
                result = client.diff(hot.run_id, "");
                break;
            case kFlame:
                result = client.flameGraph();
                break;
            case kMerged:
                result = client.merged({});
                break;
            case kFedTopK:
                result = client.federatedTopKernels(
                    {kCorpora[0], kCorpora[1]}, kAllKernels,
                    dc::prof::metric_names::kGpuTime, {}, &rows);
                break;
            case kFedDiff:
                result = client.federatedDiff({kCorpora[0]}, {kCorpora[1]});
                break;
            default:
                break;
            }
        }
        const double us = usSince(start);
        const Window window{lo, oracle.sent()};
        if (!result.ok || result.status != ds::Status::kOk) {
            out.failure(kOpSpan[op], result);
            return;
        }
        out.us[op][corpus].push_back(us);
        ++(traced ? out.done_traced : out.done_untraced);

        std::string mismatch;
        switch (op) {
        case kTopK:
        case kTopKFiltered:
            mismatch = checkTopKernels(oracle, corpus, key, window, rows,
                                       kAllKernels);
            break;
        case kDiffRuns:
            mismatch = checkDiffRuns(run_a, run_b, result.payload);
            break;
        case kDiffCorpus:
            mismatch = checkDiffCorpus(oracle, hot, window, result.payload);
            break;
        case kFlame:
            mismatch = checkFlame(oracle, corpus, window, result.payload);
            break;
        case kMerged: {
            const std::size_t hash = std::hash<std::string>{}(result.payload);
            if (window.lo == window.hi &&
                verified_merged[corpus] == window.lo &&
                verified_merged_hash[corpus] == hash) {
                break;
            }
            mismatch = checkMerged(oracle, corpus, window, result.payload);
            if (mismatch.empty() && window.lo == window.hi) {
                verified_merged[corpus] = window.lo;
                verified_merged_hash[corpus] = hash;
            }
            break;
        }
        case kFedTopK:
            mismatch = checkFederatedTopKernels(oracle, window, rows,
                                                kAllKernels);
            break;
        case kFedDiff:
            mismatch = checkFederatedDiff(oracle, window, result.payload);
            break;
        default:
            break;
        }
        if (!mismatch.empty())
            out.mismatch(mismatch);
    };
    for (std::size_t d = 0; decks != 0 ? d < decks : !shared.stop.load();
         ++d) {
        std::shuffle(deck.begin(), deck.end(), rng);
        for (const auto &[op, corpus] : deck)
            ask(op, corpus);
    }
}

/** Profile runs [0, count) of the mix under @p seed (setup work). */
std::vector<ProfiledRun>
profileMany(Shared &shared, std::uint64_t seed, std::size_t count,
            const std::string &prefix, Samples &out)
{
    std::vector<ProfiledRun> runs;
    runs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        runs.push_back(
            profileRun(makeRunSpec(seed, i, prefix), shared.tracer, i));
        out.addProfiled(runs.back());
    }
    return runs;
}

/**
 * Run the given loops on their own threads for @p seconds, or, when
 * @p seconds is 0, until one of them sets stop. With tracing,
 * recording alternates in slices and @p traced_s / @p untraced_s
 * receive the time spent in each state.
 */
double
timedPhase(Shared &shared, std::vector<std::function<void()>> loops,
           double seconds, double *traced_s, double *untraced_s)
{
    shared.stop.store(false);
    std::vector<std::thread> threads;
    const Clock::time_point start = Clock::now();
    for (auto &loop : loops)
        threads.emplace_back(std::move(loop));
    bool on = true;
    Clock::time_point slice_start = start;
    for (;;) {
        const bool done = shared.stop.load() ||
                          (seconds > 0.0 && secondsSince(start) >= seconds);
        if (shared.tracer != nullptr &&
            (done || secondsSince(slice_start) >= kTraceSlice_s)) {
            *(on ? traced_s : untraced_s) += secondsSince(slice_start);
            slice_start = Clock::now();
            on = !on;
            shared.tracer->setRecording(done || on);
        }
        if (done)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    shared.stop.store(true);
    for (std::thread &thread : threads)
        thread.join();
    return secondsSince(start);
}

/** @p runs rounded to whole cycles of @p cycle runs, at least one. */
std::size_t
wholeCycles(double runs, std::size_t cycle)
{
    const double cycles = std::round(runs / static_cast<double>(cycle));
    return std::max<std::size_t>(1, static_cast<std::size_t>(cycles)) *
           cycle;
}

/** Smallest of @p seconds; 0 when there are none. */
double
fastest(const std::vector<double> &seconds)
{
    return seconds.empty()
               ? 0.0
               : *std::min_element(seconds.begin(), seconds.end());
}

/**
 * The @p q quantile of the latencies of @p ops, taken per corpus and
 * averaged over the two: torch profiles are about twice the size of
 * jax ones, so a quantile over the pooled samples would jump between
 * the two populations from run to run.
 */
double
corpusQuantile(const Samples &samples, std::initializer_list<int> ops,
               double q)
{
    double total = 0.0;
    int corpora = 0;
    for (int c = 0; c < 2; ++c) {
        std::vector<double> pooled;
        for (int op : ops)
            pooled.insert(pooled.end(), samples.us[op][c].begin(),
                          samples.us[op][c].end());
        if (pooled.empty())
            continue;
        total += quantile(std::move(pooled), q);
        ++corpora;
    }
    return corpora > 0 ? total / corpora : 0.0;
}

/** Sum a STATS key over both corpora's replies. */
std::uint64_t
statSum(const std::map<std::string, std::uint64_t> stats[2],
        const std::string &key)
{
    std::uint64_t total = 0;
    for (int c = 0; c < 2; ++c) {
        const auto it = stats[c].find(key);
        if (it != stats[c].end())
            total += it->second;
    }
    return total;
}

/** A server- or process-wide STATS key (every corpus reports it). */
double
serverStat(const std::map<std::string, std::uint64_t> stats[2],
           const std::string &key)
{
    const auto it = stats[0].find(key);
    return it == stats[0].end() ? 0.0 : static_cast<double>(it->second);
}

void
readStats(Warehouse &warehouse, std::map<std::string, std::uint64_t> out[2])
{
    for (int c = 0; c < 2; ++c) {
        ds::WireClient client;
        std::string error;
        if (warehouse.connect(&client, c, &error))
            out[c] = fetchStats(client);
    }
}

} // namespace

Result
runWorkload(const Options &options, Clock::time_point process_start)
{
    Result result;
    const std::string &name = options.workload;
    const bool pipeline = name == "pipeline";
    const bool query_mix = name == "query_mix";
    const bool ingest_mix = name == "ingest_query_mix";
    if (!pipeline && !query_mix && !ingest_mix) {
        result.correct = false;
        result.errors.push_back("unknown workload " + name);
        return result;
    }

    Tracer tracer;
    Shared shared;
    shared.options = options;
    if (options.trace) {
        shared.tracer = &tracer;
        tracer.setRecording(true);
    }
    const std::string root = options.work_dir + "/run-" +
                             std::to_string(::getpid()) + "/warehouse";
    removeTree(root);
    Warehouse warehouse(root);
    std::string error;
    if (!warehouse.start(/*create_corpora=*/true, &error)) {
        result.correct = false;
        result.errors.push_back("warehouse start: " + error);
        return result;
    }
    shared.warehouse = &warehouse;

    // ------------------------------------------------------ set-up
    Samples setup;
    const std::vector<ProfiledRun> seed =
        profileMany(shared, options.seed, kSeedRuns, "s", setup);
    for (const ProfiledRun &run : seed)
        shared.seed_runs[run.facts.corpus].push_back(run.facts);
    ingestLoop(shared, seed, seed.size(), /*fresh_ids=*/false, setup);
    // Warm-up: one query of each kind on each corpus, so the timed
    // phase starts from built views, as a long-running server would.
    for (int c = 0; c < 2; ++c) {
        ds::WireClient client;
        if (!warehouse.connect(&client, c, &error))
            continue;
        std::vector<ds::KernelRow> rows;
        client.topKernels(kAllKernels, dc::prof::metric_names::kGpuTime, {},
                          &rows);
        client.flameGraph();
        client.merged({});
    }
    const double setup_s = secondsSince(process_start);

    // ------------------------------------------------- timed phase
    // pipeline: the producer alone, then the readers alone over the
    // corpus it grew. query_mix: the readers alone, then the writer
    // alone. ingest_query_mix: the writer and the readers together,
    // until the writer is done.
    const double seconds = options.seconds;
    const std::size_t write_runs =
        pipeline    ? wholeCycles(seconds / 2.0 * kProducerRate, kMixCycle)
        : query_mix ? wholeCycles(seconds * 0.25 * kSoloWriterRate, kSeedRuns)
                    : wholeCycles(seconds * kMixedWriterRate, kSeedRuns);
    const unsigned budget = loadThreadBudget();
    const unsigned writers_beside = ingest_mix ? 1 : 0;
    const unsigned wanted_readers = ingest_mix ? 2 : 3;
    const unsigned readers = std::max(
        1u, std::min(wanted_readers, budget - writers_beside));
    std::vector<Samples> reader_samples(readers);
    const std::vector<Mix> mixes = readerMixes(ingest_mix, readers);
    Samples writer;
    const std::function<void()> write_loop = [&] {
        const Clock::time_point start = Clock::now();
        if (pipeline)
            pipelineLoop(shared, write_runs, writer);
        else
            ingestLoop(shared, seed, write_runs, /*fresh_ids=*/true, writer);
        writer.write_s = secondsSince(start);
        shared.stop.store(true);
    };
    std::vector<std::function<void()>> read_loops;
    for (unsigned r = 0; r < readers; ++r)
        read_loops.emplace_back([&, r] {
            readerLoop(shared, mixes[r], static_cast<int>(r),
                       reader_samples[r]);
        });
    double traced_s = 0.0, untraced_s = 0.0, unused_s = 0.0;
    double read_s = 0.0;
    std::map<std::string, std::uint64_t> stats_before[2], stats_after[2],
        stats_end[2];
    // A phase of 0 seconds lasts until the writer is done.
    if (pipeline)
        timedPhase(shared, {write_loop}, 0.0, &unused_s, &unused_s);
    readStats(warehouse, stats_before);
    if (ingest_mix) {
        read_loops.push_back(write_loop);
        read_s = timedPhase(shared, std::move(read_loops), 0.0, &traced_s,
                            &untraced_s);
    } else {
        read_s = timedPhase(shared, std::move(read_loops),
                            pipeline ? seconds / 2.0 : seconds * 0.75,
                            &traced_s, &untraced_s);
    }
    readStats(warehouse, stats_after);
    if (query_mix)
        timedPhase(shared, {write_loop}, 0.0, &unused_s, &unused_s);

    Samples reads;
    for (Samples &samples : reader_samples)
        reads.merge(std::move(samples));
    // ingest_query_mix's readers ask no MERGED or run-vs-run DIFF; a
    // traced run times a few of each here, with the writer done.
    Samples extra;
    if (options.trace && ingest_mix) {
        Mix mix;
        mix.weight[kMerged] = 2;
        mix.weight[kDiffRuns] = 8;
        readerLoop(shared, mix, 0, extra, /*decks=*/4);
    }
    // Nothing may be shed: every load stays within nproc connections.
    readStats(warehouse, stats_end);
    const double shed = serverStat(stats_end, "server.shed");
    if (shed > 0.0)
        result.errors.push_back(dc::strformat("server shed %.0f requests",
                                              shed));
    const std::size_t acked = shared.oracle.acked();
    const double stored_bytes_per_run =
        static_cast<double>(dirBytes(root)) / static_cast<double>(acked);

    // Side measurements of single layers on this run's own inputs,
    // while the warehouse is still up.
    if (options.trace) {
        SideInputs side;
        side.runs = &seed;
        side.manager = &warehouse.manager();
        side.port = warehouse.port();
        side.work_dir = options.work_dir + "/run-" +
                        std::to_string(::getpid()) + "/side";
        side.tracer = &tracer;
        measureSideLayers(side, &result);
    }

    // ------------------------------------- drain, restart, recover
    warehouse.shutdown();
    Samples closing;
    std::vector<double> recover_s, open_s;
    for (int restart = 0; restart < kRestarts; ++restart) {
        const Clock::time_point start = Clock::now();
        Warehouse recovered(root);
        if (!recovered.start(/*create_corpora=*/false, &error)) {
            closing.note("restart: " + error);
            ++closing.failed;
            break;
        }
        std::vector<ds::KernelRow> rows[2];
        for (int c = 0; c < 2; ++c) {
            ds::WireClient client;
            ++closing.attempted;
            if (!recovered.connect(&client, c, &error)) {
                closing.note("restart connect: " + error);
                ++closing.failed;
                continue;
            }
            Tracer::Scope span(shared.tracer, "recover.topKernels", c);
            const ds::WireClient::Result r = client.topKernels(
                kAllKernels, dc::prof::metric_names::kGpuTime, {}, &rows[c]);
            if (!r.ok || r.status != ds::Status::kOk)
                closing.failure("TOP_KERNELS after restart", r);
        }
        recover_s.push_back(secondsSince(start));
        open_s.push_back(recovered.openSeconds());
        for (int c = 0; c < 2; ++c) {
            const dc::service::CorpusHandle handle =
                recovered.manager().open(kCorpora[c]);
            const std::vector<std::string> ids =
                handle ? handle->store.runIds() : std::vector<std::string>{};
            const std::string mismatch = checkRecovered(
                shared.oracle, c, ids, rows[c], kAllKernels);
            if (!mismatch.empty())
                closing.mismatch(mismatch);
        }
    }
    removeTree(options.work_dir + "/run-" + std::to_string(::getpid()));

    // ------------------------------------------------------ report
    // The paper's overhead figure: the producer on pipeline, the seed
    // corpus elsewhere.
    const Samples &profiled = pipeline ? writer : setup;
    const double runs_per_s =
        static_cast<double>(writer.runs_acked) / writer.write_s;
    const double queries = static_cast<double>(reads.done_traced +
                                               reads.done_untraced);

    if (!options.trace) {
        auto &m = result.metrics;
        m["runs_per_s"] = {runs_per_s, "runs/s"};
        m["profile_slowdown"] = {profiled.profiled_s / profiled.plain_s, "x"};
        m["publish_p50_ms"] = {
            corpusQuantile(writer, {kPublish}, 0.5) / 1e3, "ms"};
        m["stored_bytes_per_run"] = {stored_bytes_per_run, "B"};
        m["query_qps"] = {queries / read_s, "ops/s"};
        m["topk_p50_us"] = {
            corpusQuantile(reads, {kTopK, kTopKFiltered}, 0.5), "us"};
        m["peak_rss_mb"] = {peakRssMb(), "MiB"};
        m["setup_s"] = {setup_s, "s"};
    } else {
        Samples every;
        every.merge(Samples(setup));
        every.merge(Samples(writer));
        auto &m = result.metrics;
        // Round trips per opcode: too unsteady on a shared 4-vCPU host
        // to gate (see README), reported here for attribution.
        m["op.topk_p90_us"] = {
            corpusQuantile(reads, {kTopK, kTopKFiltered}, 0.9), "us"};
        const Samples &heavy = ingest_mix ? extra : reads;
        m["op.merged_p50_ms"] = {
            corpusQuantile(heavy, {kMerged}, 0.5) / 1e3, "ms"};
        m["op.flame_p50_ms"] = {corpusQuantile(reads, {kFlame}, 0.5) / 1e3,
                                "ms"};
        m["op.diff_p50_us"] = {corpusQuantile(heavy, {kDiffRuns}, 0.5),
                               "us"};
        m["op.federated_diff_p50_ms"] = {
            corpusQuantile(reads, {kFedDiff}, 0.5) / 1e3, "ms"};
        m["profiler.overhead_us_per_path"] = {
            (profiled.profiled_s - profiled.plain_s) * 1e6 /
                static_cast<double>(std::max<std::uint64_t>(profiled.paths, 1)),
            "us"};
        m["dlmonitor.callpath_cache_hit_ratio"] = {
            static_cast<double>(profiled.callpath_hits) /
                static_cast<double>(
                    std::max<std::uint64_t>(profiled.callpath_requests, 1)),
            "ratio"};
        m["profiler.paths_per_run"] = {
            static_cast<double>(profiled.paths) /
                static_cast<double>(
                    std::max<std::uint64_t>(profiled.runs_profiled, 1)),
            "count"};
        double serialize_total = 0.0;
        for (double s : every.serialize_s)
            serialize_total += s;
        m["profile_db.serialize_ms"] = {median(every.serialize_s) * 1e3,
                                        "ms"};
        m["profile_db.serialize_mb_per_s"] = {
            static_cast<double>(every.serialized_bytes) / 1e6 /
                serialize_total,
            "MB/s"};
        m["profile_db.bytes_per_run"] = {
            static_cast<double>(every.text_bytes) /
                static_cast<double>(
                    std::max<std::uint64_t>(every.runs_acked, 1)),
            "B"};
        m["server.ingest_ack_ms"] = {
            corpusQuantile(writer, {kIngest}, 0.5) / 1e3, "ms"};
        m["server.shed"] = {shed, "count"};
        const double appends = static_cast<double>(
            statSum(stats_after, "store.log_appends"));
        m["wal.fsyncs_per_append"] = {
            static_cast<double>(statSum(stats_after, "store.log_fsyncs")) /
                std::max(appends, 1.0),
            "ratio"};
        m["store.recover_runs_per_s"] = {
            static_cast<double>(acked) / fastest(recover_s), "runs/s"};
        m["manager.open_ms"] = {fastest(open_s) * 1e3, "ms"};
        const auto delta = [&](const char *key) {
            return static_cast<double>(statSum(stats_after, key) -
                                       statSum(stats_before, key));
        };
        const double lookups =
            delta("view.hits") + delta("view.incremental") +
            delta("view.rebuilds");
        m["view.hit_ratio"] = {delta("view.hits") / std::max(lookups, 1.0),
                               "ratio"};
        m["exec.stolen"] = {serverStat(stats_after, "exec.stolen") -
                                serverStat(stats_before, "exec.stolen"),
                            "count"};
        m["exec.inline_run"] = {serverStat(stats_after, "exec.inline_run") -
                                    serverStat(stats_before,
                                               "exec.inline_run"),
                                "count"};
        const double rate_on =
            static_cast<double>(reads.done_traced) / std::max(traced_s, 1e-9);
        const double rate_off = static_cast<double>(reads.done_untraced) /
                                std::max(untraced_s, 1e-9);
        m["trace.overhead_pct"] = {
            rate_off > 0.0 ? 100.0 * (rate_off - rate_on) / rate_off : 0.0,
            "%"};
        const std::string trace_path = options.work_dir + "/trace-" + name +
                                       "-" + std::to_string(options.seed) +
                                       ".json";
        if (!tracer.writeChromeTrace(trace_path))
            result.errors.push_back("cannot write " + trace_path);
        else
            std::fprintf(stderr, "perfbench: trace written to %s\n",
                         trace_path.c_str());
    }

    // Per-operation latency summary for people reading the log.
    const Samples *summarized[] = {&writer, &reads};
    for (const Samples *samples : summarized) {
        for (int op = 0; op < kOpCount; ++op) {
            for (int c = 0; c < 2; ++c) {
                const std::vector<double> &us = samples->us[op][c];
                if (us.empty())
                    continue;
                std::fprintf(stderr,
                             "perfbench: %-32s %-5s n=%-6zu p10=%.1fus "
                             "p50=%.1fus p90=%.1fus\n",
                             kOpSpan[op], kCorpora[c], us.size(),
                             quantile(us, 0.1), quantile(us, 0.5),
                             quantile(us, 0.9));
            }
        }
    }

    Samples tally;
    tally.merge(std::move(setup));
    tally.merge(std::move(writer));
    tally.merge(std::move(reads));
    tally.merge(std::move(extra));
    tally.merge(std::move(closing));
    result.attempted = tally.attempted;
    result.failed = tally.failed;
    result.correct = tally.mismatches == 0 && result.errors.empty();
    for (std::string &e : tally.errors)
        result.errors.push_back(std::move(e));
    return result;
}

} // namespace perfbench
