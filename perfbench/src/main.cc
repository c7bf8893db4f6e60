// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <pipeline|query_mix|ingest_query_mix>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//   perfbench --self-test [--seed <n>] [--work-dir <dir>]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and a Chrome trace is written under the work dir.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--work-dir <dir>]\n"
                 "       perfbench --self-test [--seed <n>] "
                 "[--work-dir <dir>]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const perfbench::Clock::time_point start = perfbench::Clock::now();
    perfbench::Options options;
    bool self_test = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--self-test") {
            self_test = true;
        } else if (arg == "--workload" && has_value) {
            options.workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            options.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && has_value) {
            options.seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace" && has_value) {
            options.trace = std::strcmp(argv[++i], "0") != 0;
        } else if (arg == "--work-dir" && has_value) {
            options.work_dir = argv[++i];
        } else {
            return usage();
        }
    }
    if (self_test)
        return perfbench::runSelfTest(options);
    if (options.workload.empty() || options.seconds <= 0.0)
        return usage();

    const perfbench::Result result =
        perfbench::runWorkload(options, start);
    for (const std::string &error : result.errors)
        std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    if (result.metrics.empty())
        return 1; // set-up failed: no result to report

    for (const auto &[name, metric] : result.metrics)
        std::printf("%-36s %16.6f %s\n", name.c_str(), metric.value,
                    metric.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                result.correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    bool first = true;
    for (const auto &[name, metric] : result.metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), metric.value,
                    metric.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
    return 0;
}
