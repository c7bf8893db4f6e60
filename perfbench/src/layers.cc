// Single-layer side measurements. Work inside the server cannot be
// timed from outside, so each layer is timed by calling its public
// functions directly on the same inputs the workload ingested.

#include <algorithm>

#include "analyzer/diff.h"
#include "bench.h"
#include "gui/flamegraph.h"
#include "profiler/metrics.h"
#include "profiler/profile_db.h"
#include "service/cct_merger.h"
#include "service/profile_store.h"
#include "service/query_engine.h"
#include "service/warehouse_log.h"

namespace perfbench {

namespace {

/// Inputs per side measurement: enough for a stable median.
constexpr std::size_t kSideRuns = 48;
constexpr int kReps = 7;

/** Median seconds of @p reps calls to @p fn, each one span. */
template <typename Fn>
double
timeMedian(Tracer *tracer, const char *name, int reps, Fn &&fn)
{
    std::vector<double> seconds;
    for (int i = 0; i < reps; ++i) {
        Tracer::Scope span(tracer, name, static_cast<std::uint64_t>(i));
        const Clock::time_point start = Clock::now();
        fn(i);
        seconds.push_back(secondsSince(start));
    }
    return median(seconds);
}

} // namespace

void
measureSideLayers(const SideInputs &in, Result *result)
{
    auto &m = result->metrics;
    Tracer *tracer = in.tracer;
    const std::vector<ProfiledRun> &runs = *in.runs;
    if (runs.size() < 2 + kReps) {
        result->errors.push_back("side measurements need more runs");
        return;
    }
    // The last kReps runs are the refresh inputs.
    const std::size_t n = std::min(kSideRuns, runs.size() - kReps);

    // ProfileDb::tryDeserialize on the texts that were ingested.
    std::vector<std::unique_ptr<dc::prof::ProfileDb>> dbs(n);
    std::vector<double> parse_s;
    for (std::size_t i = 0; i < n; ++i) {
        Tracer::Scope span(tracer, "ProfileDb.tryDeserialize", i);
        const Clock::time_point start = Clock::now();
        dbs[i] = dc::prof::ProfileDb::tryDeserialize(runs[i].text);
        parse_s.push_back(secondsSince(start));
        if (dbs[i] == nullptr) {
            result->errors.push_back("side parse of " +
                                     runs[i].facts.run_id + " failed");
            return;
        }
    }
    m["profile_db.parse_ms"] = {median(parse_s) * 1e3, "ms"};

    // WarehouseLog append + sync in a side directory on the same
    // filesystem as the corpus root.
    {
        removeTree(in.work_dir);
        dc::service::WarehouseLog log;
        dc::service::WarehouseLog::Options options;
        options.dir = in.work_dir + "/wal";
        options.sync = true;
        std::string error;
        // A log serves appends only after its (here empty) replay.
        if (!log.open(options, &error) ||
            !log.replay([](dc::service::WarehouseLog::Record) {}, nullptr,
                        &error)) {
            result->errors.push_back("side WAL open: " + error);
            return;
        }
        std::vector<double> append_s;
        for (std::size_t i = 0; i < n; ++i) {
            Tracer::Scope span(tracer, "WarehouseLog.appendRun", i);
            const Clock::time_point start = Clock::now();
            if (!log.appendRun(runs[i].facts.run_id, runs[i].text,
                               &error)) {
                result->errors.push_back("side WAL append: " + error);
                return;
            }
            append_s.push_back(secondsSince(start));
        }
        m["wal.append_sync_ms"] = {median(append_s) * 1e3, "ms"};
    }
    removeTree(in.work_dir);

    // QueryEngine over a volatile side store: cold rebuild, hit, and
    // incremental refresh after one new run.
    {
        dc::service::ProfileStore store;
        for (std::size_t i = 0; i < n; ++i)
            store.ingestText(runs[i].facts.run_id, runs[i].text);
        store.waitIdle();
        const std::string gpu = dc::prof::metric_names::kGpuTime;
        const double rebuild = timeMedian(
            tracer, "QueryEngine.topKernels.rebuild", kReps, [&](int) {
                dc::service::QueryEngine cold(store);
                cold.topKernels(kAllKernels, {}, gpu);
            });
        m["view.rebuild_ms"] = {rebuild * 1e3, "ms"};
        dc::service::QueryEngine engine(store);
        engine.topKernels(kAllKernels, {}, gpu);
        const double hit = timeMedian(
            tracer, "QueryEngine.topKernels.hit", 201,
            [&](int) { engine.topKernels(kAllKernels, {}, gpu); });
        m["view.hit_us"] = {hit * 1e6, "us"};
        std::vector<double> refresh_s;
        for (int i = 0; i < kReps; ++i) {
            const ProfiledRun &extra =
                runs[runs.size() - 1 - static_cast<std::size_t>(i)];
            store.ingestText("refresh-" + std::to_string(i), extra.text);
            store.waitIdle();
            Tracer::Scope span(tracer, "QueryEngine.topKernels.refresh",
                               static_cast<std::uint64_t>(i));
            const Clock::time_point start = Clock::now();
            engine.topKernels(kAllKernels, {}, gpu);
            refresh_s.push_back(secondsSince(start));
        }
        m["view.refresh_ms"] = {median(refresh_s) * 1e3, "ms"};
    }

    // CctMerger, FlameGraph and the analyzer on the parsed runs.
    std::vector<const dc::prof::ProfileDb *> profiles;
    std::vector<std::string> ids;
    for (std::size_t i = 0; i < n; ++i) {
        profiles.push_back(dbs[i].get());
        ids.push_back(runs[i].facts.run_id);
    }
    std::unique_ptr<dc::prof::ProfileDb> merged;
    const double merge = timeMedian(
        tracer, "CctMerger.mergeAllPrevalidated", kReps, [&](int) {
            merged = dc::service::CctMerger::mergeAllPrevalidated(profiles,
                                                                  ids);
        });
    m["cct_merger.merge_ms"] = {merge * 1e3, "ms"};
    dc::gui::FlameNode flame;
    const double build =
        timeMedian(tracer, "FlameGraph.topDown", kReps, [&](int) {
            flame = dc::gui::FlameGraph::topDown(*merged, {});
        });
    m["flamegraph.build_ms"] = {build * 1e3, "ms"};
    const double html =
        timeMedian(tracer, "FlameGraph.toHtml", kReps, [&](int) {
            const std::string page =
                dc::gui::FlameGraph::toHtml(flame, "warehouse");
            if (page.empty())
                result->errors.push_back("side flame HTML empty");
        });
    m["flamegraph.html_ms"] = {html * 1e3, "ms"};
    const double compare = timeMedian(
        tracer, "analysis.compareProfiles", static_cast<int>(n) - 1,
        [&](int i) {
            const std::size_t a = static_cast<std::size_t>(i);
            dc::analysis::compareProfiles(*dbs[a], *dbs[a + 1]);
        });
    m["diff.compare_us"] = {compare * 1e6, "us"};

    // The live manager's federated diff over its warm views.
    const double federated = timeMedian(
        tracer, "WarehouseManager.federatedDiff", 21, [&](int) {
            std::string error;
            if (!in.manager->federatedDiff({kCorpora[0]}, {kCorpora[1]}, {},
                                           &error)) {
                result->errors.push_back("side federated diff: " + error);
            }
        });
    m["manager.federated_diff_ms"] = {federated * 1e3, "ms"};

    // Wire round trip with no work behind it.
    dc::server::WireClient client;
    std::string error;
    if (!client.connect("127.0.0.1", in.port, &error)) {
        result->errors.push_back("side ping connect: " + error);
        return;
    }
    const double ping =
        timeMedian(tracer, "WireClient.ping", 501, [&](int) {
            const dc::server::WireClient::Result r = client.ping("");
            if (!r.ok || r.status != dc::server::Status::kOk)
                result->errors.push_back("side ping failed");
        });
    m["server.ping_rtt_us"] = {ping * 1e6, "us"};
}

} // namespace perfbench
