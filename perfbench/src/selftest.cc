// Self-test: every correctness check must accept the true answer and
// reject the same answer once the oracle or the corpus is perturbed.

#include <cstdio>
#include <unistd.h>

#include "bench.h"
#include "profiler/metrics.h"

namespace perfbench {

namespace ds = dc::server;

namespace {

constexpr std::size_t kRuns = 16;

/** The answers the checks are run against. */
struct Answers {
    std::vector<ds::KernelRow> topk[2];
    std::vector<ds::KernelRow> topk_model; ///< Torch, filtered by model.
    std::vector<ds::KernelRow> fed_topk;
    std::string merged;
    std::string flame;
    std::string diff_runs;
    std::string diff_corpus;
    std::string fed_diff;
    bool ok = true;
};

Answers
ask(Warehouse &warehouse, const RunFacts &a, const RunFacts &b,
    const RunFacts &hot, const FilterKey &model)
{
    Answers out;
    ds::WireClient client;
    std::string error;
    if (!warehouse.connect(&client, 0, &error)) {
        out.ok = false;
        return out;
    }
    const std::string gpu = dc::prof::metric_names::kGpuTime;
    const auto ok = [&out](const ds::WireClient::Result &r) {
        out.ok = out.ok && r.ok && r.status == ds::Status::kOk;
        return r.payload;
    };
    for (int c = 0; c < 2; ++c) {
        client.setCorpus(kCorpora[c]);
        ok(client.topKernels(kAllKernels, gpu, {}, &out.topk[c]));
    }
    client.setCorpus(kCorpora[0]);
    ok(client.topKernels(kAllKernels, gpu, model.toFilter(),
                         &out.topk_model));
    out.merged = ok(client.merged({}));
    out.flame = ok(client.flameGraph());
    out.diff_runs = ok(client.diff(a.run_id, b.run_id));
    out.diff_corpus = ok(client.diff(hot.run_id, ""));
    out.fed_diff = ok(client.federatedDiff({kCorpora[0]}, {kCorpora[1]}));
    ok(client.federatedTopKernels({kCorpora[0], kCorpora[1]}, kAllKernels,
                                  gpu, {}, &out.fed_topk));
    return out;
}

/** Every check on @p answers against @p oracle; name -> verdict. */
std::vector<std::pair<std::string, std::string>>
checkAll(const Oracle &oracle, const Answers &answers, const RunFacts &a,
         const RunFacts &b, const RunFacts &hot, const FilterKey &model)
{
    const std::size_t all = oracle.acked();
    const Window w{all, all};
    return {
        {"TOP_KERNELS (torch)",
         checkTopKernels(oracle, 0, FilterKey{}, w, answers.topk[0],
                         kAllKernels)},
        {"TOP_KERNELS (jax)",
         checkTopKernels(oracle, 1, FilterKey{}, w, answers.topk[1],
                         kAllKernels)},
        {"TOP_KERNELS (model filter)",
         checkTopKernels(oracle, 0, model, w, answers.topk_model,
                         kAllKernels)},
        {"FEDERATED_TOP_KERNELS",
         checkFederatedTopKernels(oracle, w, answers.fed_topk, kAllKernels)},
        {"MERGED", checkMerged(oracle, 0, w, answers.merged)},
        {"FLAME_GRAPH", checkFlame(oracle, 0, w, answers.flame)},
        {"DIFF run-vs-run", checkDiffRuns(a, b, answers.diff_runs)},
        {"DIFF run-vs-corpus",
         checkDiffCorpus(oracle, hot, w, answers.diff_corpus)},
        {"FEDERATED_DIFF", checkFederatedDiff(oracle, w, answers.fed_diff)},
    };
}

} // namespace

int
runSelfTest(const Options &options)
{
    const std::string root =
        options.work_dir + "/selftest-" + std::to_string(::getpid());
    removeTree(root);
    int broken = 0;
    const auto verdict = [&broken](const std::string &check,
                                   const std::string &perturbation,
                                   const std::string &error, bool want_fail) {
        const bool failed = !error.empty();
        const bool right = failed == want_fail;
        if (!right)
            ++broken;
        std::printf("%-28s %-34s %-8s %s\n", check.c_str(),
                    perturbation.c_str(), failed ? "FAILS" : "passes",
                    right ? "ok" : "WRONG");
        if (failed)
            std::printf("    %s\n", error.c_str());
    };

    // Profile the inputs; the twin check gets a mismatched twin.
    std::vector<ProfiledRun> runs;
    for (std::size_t i = 0; i < kRuns; ++i)
        runs.push_back(profileRun(makeRunSpec(options.seed, i, "t"), nullptr,
                                  i));
    {
        const ProfiledRun &run = runs.front();
        verdict("profiled vs unprofiled", "none", checkTwin(run), false);
        dc::workloads::RunConfig config = makeRunSpec(options.seed, 0, "t")
                                               .config;
        const dc::workloads::RunResult profiled =
            dc::workloads::runWorkload(config);
        config.profiler = dc::workloads::ProfilerMode::kNone;
        config.iterations += 1; // a different run behind the oracle
        ProfiledRun perturbed = run;
        perturbed.twin_equal =
            sameDeviceFigures(profiled, dc::workloads::runWorkload(config));
        verdict("profiled vs unprofiled", "unprofiled twin differs",
                checkTwin(perturbed), true);
    }

    Warehouse warehouse(root + "/warehouse");
    std::string error;
    if (!warehouse.start(true, &error)) {
        std::fprintf(stderr, "self-test: warehouse start: %s\n",
                     error.c_str());
        return 2;
    }
    Oracle oracle(kRuns + 1);
    Oracle dropped(kRuns + 1); // the same runs, one forgotten
    {
        ds::WireClient client;
        if (!warehouse.connect(&client, 0, &error))
            return 2;
        for (const ProfiledRun &run : runs) {
            client.setCorpus(kCorpora[run.facts.corpus]);
            oracle.markSent(run.facts);
            dropped.markSent(run.facts);
            const ds::WireClient::Result r =
                client.ingest(run.facts.run_id, run.text, true);
            if (!r.ok || r.status != ds::Status::kOk) {
                std::fprintf(stderr, "self-test: ingest failed\n");
                return 2;
            }
            oracle.markAcked();
            dropped.markAcked();
        }
    }
    // Operands: two torch runs for the diffs, a third one to perturb.
    std::vector<std::size_t> torch;
    for (std::size_t i = 0; i < kRuns; ++i) {
        if (runs[i].facts.corpus == 0)
            torch.push_back(i);
    }
    if (torch.size() < 3) {
        std::fprintf(stderr, "self-test: seed gives too few torch runs\n");
        return 2;
    }
    const RunFacts a = runs[torch[0]].facts;
    const RunFacts b = runs[torch[1]].facts;
    const RunFacts &victim = runs[torch[2]].facts;
    const FilterKey model{victim.model, -1};
    dropped.forget(torch[2]);

    const Answers truth = ask(warehouse, a, b, a, model);
    if (!truth.ok) {
        std::fprintf(stderr, "self-test: a query failed\n");
        return 2;
    }
    for (const auto &[check, e] : checkAll(oracle, truth, a, b, a, model))
        verdict(check, "none", e, false);
    for (const auto &[check, e] : checkAll(dropped, truth, a, b, a, model)) {
        if (check == "TOP_KERNELS (jax)")
            continue; // the dropped run is a torch run
        if (check == "DIFF run-vs-run")
            continue; // covered below: it reads no corpus sums
        verdict(check, "oracle drops one run", e, true);
    }
    {
        RunFacts wrong = b;
        wrong.kernels += 1;
        verdict("DIFF run-vs-run", "oracle misstates one run",
                checkDiffRuns(a, wrong, truth.diff_runs), true);
    }

    // ERASE a run behind the oracle's back, ask again.
    {
        ds::WireClient client;
        if (!warehouse.connect(&client, 0, &error))
            return 2;
        const ds::WireClient::Result r = client.erase(victim.run_id);
        if (!r.ok || r.status != ds::Status::kOk) {
            std::fprintf(stderr, "self-test: erase failed\n");
            return 2;
        }
    }
    const Answers erased = ask(warehouse, a, b, a, model);
    if (!erased.ok) {
        std::fprintf(stderr, "self-test: a query failed after erase\n");
        return 2;
    }
    for (const auto &[check, e] : checkAll(oracle, erased, a, b, a, model)) {
        if (check == "TOP_KERNELS (jax)" || check == "DIFF run-vs-run")
            continue; // neither reads the torch corpus sums
        verdict(check, "run erased behind the oracle", e, true);
    }

    // Restart on the same root: the erased run is gone for good.
    warehouse.shutdown();
    Warehouse recovered(root + "/warehouse");
    if (!recovered.start(false, &error)) {
        std::fprintf(stderr, "self-test: restart: %s\n", error.c_str());
        return 2;
    }
    for (int c = 0; c < 2; ++c) {
        ds::WireClient client;
        if (!recovered.connect(&client, c, &error))
            return 2;
        std::vector<ds::KernelRow> rows;
        client.topKernels(kAllKernels, dc::prof::metric_names::kGpuTime, {},
                          &rows);
        const std::vector<std::string> ids =
            recovered.manager().open(kCorpora[c])->store.runIds();
        verdict(std::string("restart (") + kCorpora[c] + ")",
                c == 0 ? "run erased behind the oracle" : "none",
                checkRecovered(oracle, c, ids, rows, kAllKernels), c == 0);
        verdict(std::string("restart (") + kCorpora[c] + ")",
                c == 0 ? "oracle drops the erased run"
                       : "oracle drops a torch run",
                checkRecovered(dropped, c, ids, rows, kAllKernels), false);
    }
    recovered.shutdown();
    removeTree(root);

    std::printf("self-test: %s\n",
                broken == 0 ? "every check accepts the truth and rejects "
                              "every perturbation"
                            : "SOME CHECKS ARE WRONG");
    return broken == 0 ? 0 : 1;
}

} // namespace perfbench
