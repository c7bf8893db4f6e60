// The correctness oracle: what every answer must add up to, computed
// from RunResult figures the simulated device reports apart from the
// profiler, never from the warehouse.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <set>

#include "analyzer/diff.h"
#include "bench.h"
#include "common/strings.h"
#include "profiler/profile_db.h"

namespace perfbench {

namespace dw = dc::workloads;

dc::service::QueryFilter
FilterKey::toFilter() const
{
    dc::service::QueryFilter filter;
    if (model >= 0)
        filter.model = dw::workloadName(static_cast<dw::WorkloadId>(model));
    if (platform >= 0)
        filter.platform =
            dw::platformName(static_cast<dw::PlatformSel>(platform));
    return filter;
}

int
FilterKey::index() const
{
    if (model >= 0)
        return 1 + model;
    if (platform >= 0)
        return 1 + dw::kNumWorkloads + platform;
    return 0;
}

Oracle::Oracle(std::size_t capacity)
    : capacity_(capacity), runs_(new RunFacts[capacity])
{
    cum_.resize(2);
    for (auto &per_corpus : cum_) {
        per_corpus.resize(FilterKey::kCount);
        for (auto &sums : per_corpus) {
            // Readers index below the published count while the writer
            // appends: the reserve keeps the storage from moving.
            sums.reserve(capacity + 1);
            sums.push_back(Sums{});
        }
    }
}

void
Oracle::markSent(const RunFacts &facts)
{
    const std::size_t i = sent_.load(std::memory_order_relaxed);
    if (i >= capacity_) {
        std::fprintf(stderr, "perfbench: oracle capacity %zu exceeded\n",
                     capacity_);
        std::abort();
    }
    runs_[i] = facts;
    const FilterKey model_key{facts.model, -1};
    const FilterKey platform_key{-1, facts.platform};
    for (int c = 0; c < 2; ++c) {
        for (int key = 0; key < FilterKey::kCount; ++key) {
            Sums next = cum_[c][key].back();
            const bool matches =
                c == facts.corpus &&
                (key == 0 || key == model_key.index() ||
                 key == platform_key.index());
            if (matches) {
                next.gpu_ns += facts.gpu_ns;
                next.kernels += facts.kernels;
            }
            cum_[c][key].push_back(next);
        }
    }
    sent_.store(i + 1, std::memory_order_release);
}

void
Oracle::markAcked()
{
    acked_.fetch_add(1, std::memory_order_acq_rel);
}

Sums
Oracle::sums(int corpus, const FilterKey &key, std::size_t prefix) const
{
    return cum_[corpus][key.index()][prefix];
}

std::vector<std::string>
Oracle::runIds(int corpus, std::size_t prefix) const
{
    std::vector<std::string> ids;
    for (std::size_t i = 0; i < prefix; ++i) {
        if (runs_[i].corpus == corpus && !runs_[i].run_id.empty())
            ids.push_back(runs_[i].run_id);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
}

void
Oracle::forget(std::size_t index)
{
    const RunFacts gone = runs_[index];
    const FilterKey model_key{gone.model, -1};
    const FilterKey platform_key{-1, gone.platform};
    for (int key = 0; key < FilterKey::kCount; ++key) {
        if (key != 0 && key != model_key.index() &&
            key != platform_key.index()) {
            continue;
        }
        auto &sums = cum_[gone.corpus][key];
        for (std::size_t j = index + 1; j < sums.size(); ++j) {
            sums[j].gpu_ns -= gone.gpu_ns;
            sums[j].kernels -= gone.kernels;
        }
    }
    runs_[index].run_id.clear();
}

namespace {

std::string
describe(const char *what, Sums got, Sums want)
{
    return dc::strformat("%s: got gpu_ns=%" PRIu64 " kernels=%" PRIu64
                         ", expected gpu_ns=%" PRIu64
                         " kernels=%" PRIu64,
                         what, got.gpu_ns, got.kernels, want.gpu_ns,
                         want.kernels);
}

/** Sums of TOP_KERNELS rows; exact because every term is an integer. */
bool
rowSums(const std::vector<dc::server::KernelRow> &rows, std::uint32_t k,
        Sums *out, std::string *error)
{
    if (rows.size() >= k) {
        *error = "TOP_KERNELS answer truncated at k; sums incomparable";
        return false;
    }
    double total = 0.0;
    std::uint64_t samples = 0;
    for (const dc::server::KernelRow &row : rows) {
        total += row.total;
        samples += row.samples;
    }
    out->gpu_ns = static_cast<std::uint64_t>(total);
    out->kernels = samples;
    if (static_cast<double>(out->gpu_ns) != total) {
        *error = "TOP_KERNELS totals are not whole nanoseconds";
        return false;
    }
    return true;
}

/** First prefix in @p window whose sums equal @p got, if any. */
template <typename SumsAt>
bool
inWindow(Window window, Sums got, SumsAt &&at, Sums *closest)
{
    for (std::size_t j = window.lo; j <= window.hi; ++j) {
        const Sums want = at(j);
        if (want == got)
            return true;
        *closest = want;
    }
    return false;
}

/** "label   <a>   <b>" row of ProfileComparison::toString. */
bool
diffRow(const std::string &text, const std::string &label,
        std::string *a, std::string *b)
{
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t end = text.find('\n', pos);
        if (end == std::string::npos)
            end = text.size();
        const std::string line = text.substr(pos, end - pos);
        pos = end + 1;
        if (line.compare(0, label.size(), label) != 0)
            continue;
        // Columns are right-aligned 14 characters wide after a
        // 34-character label column.
        if (line.size() < 34 + 15 + 14)
            return false;
        const auto trim = [](std::string s) {
            const std::size_t first = s.find_first_not_of(' ');
            return first == std::string::npos ? std::string()
                                              : s.substr(first);
        };
        *a = trim(line.substr(34, 15));
        *b = trim(line.substr(34 + 15, 15));
        return true;
    }
    return false;
}

/** Both sides of a diff text: launches exactly, GPU time as printed. */
std::string
checkDiffText(const std::string &text, Sums a, Sums b)
{
    std::string la, lb, ta, tb;
    if (!diffRow(text, "kernel launches", &la, &lb) ||
        !diffRow(text, "total GPU time", &ta, &tb)) {
        return "DIFF text lacks the launch or GPU-time row";
    }
    const std::string want_la = std::to_string(a.kernels);
    const std::string want_lb = std::to_string(b.kernels);
    const std::string want_ta =
        dc::humanTime(static_cast<std::int64_t>(a.gpu_ns));
    const std::string want_tb =
        dc::humanTime(static_cast<std::int64_t>(b.gpu_ns));
    if (la != want_la || lb != want_lb || ta != want_ta || tb != want_tb) {
        return "DIFF sides (" + la + ", " + ta + ") / (" + lb + ", " + tb +
               ") expected (" + want_la + ", " + want_ta + ") / (" +
               want_lb + ", " + want_tb + ")";
    }
    return "";
}

} // namespace

std::string
checkTopKernels(const Oracle &oracle, int corpus, const FilterKey &key,
                Window window,
                const std::vector<dc::server::KernelRow> &rows,
                std::uint32_t k)
{
    Sums got;
    std::string error;
    if (!rowSums(rows, k, &got, &error))
        return error;
    Sums closest;
    if (inWindow(window, got,
                 [&](std::size_t j) { return oracle.sums(corpus, key, j); },
                 &closest)) {
        return "";
    }
    return describe("TOP_KERNELS", got, closest);
}

std::string
checkFederatedTopKernels(const Oracle &oracle, Window window,
                         const std::vector<dc::server::KernelRow> &rows,
                         std::uint32_t k)
{
    Sums got;
    std::string error;
    if (!rowSums(rows, k, &got, &error))
        return error;
    // Each leg reads its corpus at its own moment in the window.
    Sums closest;
    for (std::size_t i = window.lo; i <= window.hi; ++i) {
        const Sums torch = oracle.sums(0, FilterKey{}, i);
        for (std::size_t j = window.lo; j <= window.hi; ++j) {
            const Sums jax = oracle.sums(1, FilterKey{}, j);
            closest = Sums{torch.gpu_ns + jax.gpu_ns,
                           torch.kernels + jax.kernels};
            if (closest == got)
                return "";
        }
    }
    return describe("FEDERATED_TOP_KERNELS", got, closest);
}

std::string
checkMerged(const Oracle &oracle, int corpus, Window window,
            const std::string &text)
{
    std::string error;
    const std::unique_ptr<dc::prof::ProfileDb> merged =
        dc::prof::ProfileDb::tryDeserialize(text, &error);
    if (merged == nullptr)
        return "MERGED reply does not parse: " + error;
    if (!merged->validate(&error))
        return "MERGED reply does not validate: " + error;
    const dc::analysis::ProfileComparison self =
        dc::analysis::compareProfiles(*merged, *merged);
    const Sums got{static_cast<std::uint64_t>(self.gpu_time_a),
                   self.kernel_launches_a};
    Sums closest;
    if (inWindow(window, got,
                 [&](std::size_t j) {
                     return oracle.sums(corpus, FilterKey{}, j);
                 },
                 &closest)) {
        return "";
    }
    return describe("MERGED", got, closest);
}

std::string
checkDiffRuns(const RunFacts &a, const RunFacts &b, const std::string &text)
{
    return checkDiffText(text, Sums{a.gpu_ns, a.kernels},
                         Sums{b.gpu_ns, b.kernels});
}

std::string
checkDiffCorpus(const Oracle &oracle, const RunFacts &run, Window window,
                const std::string &text)
{
    std::string last;
    for (std::size_t j = window.lo; j <= window.hi; ++j) {
        const Sums corpus = oracle.sums(run.corpus, FilterKey{}, j);
        const Sums rest{corpus.gpu_ns - run.gpu_ns,
                        corpus.kernels - run.kernels};
        last = checkDiffText(text, Sums{run.gpu_ns, run.kernels}, rest);
        if (last.empty())
            return "";
    }
    return "run-vs-corpus " + last;
}

std::string
checkFederatedDiff(const Oracle &oracle, Window window,
                   const std::string &text)
{
    std::string last;
    for (std::size_t i = window.lo; i <= window.hi; ++i) {
        for (std::size_t j = window.lo; j <= window.hi; ++j) {
            last = checkDiffText(text, oracle.sums(0, FilterKey{}, i),
                                 oracle.sums(1, FilterKey{}, j));
            if (last.empty())
                return "";
        }
    }
    return "FEDERATED_DIFF " + last;
}

std::string
checkFlame(const Oracle &oracle, int corpus, Window window,
           const std::string &html)
{
    // The first box is the root: title="<label>: <value>".
    const std::size_t box = html.find("<div class=\"f\"");
    const std::size_t title =
        box == std::string::npos ? box : html.find("title=\"", box);
    const std::size_t quote =
        title == std::string::npos ? title : html.find('"', title + 7);
    if (quote == std::string::npos)
        return "FLAME_GRAPH html has no root box";
    const std::string attr = html.substr(title + 7, quote - title - 7);
    const std::size_t colon = attr.rfind(": ");
    if (colon == std::string::npos)
        return "FLAME_GRAPH root title unreadable: " + attr;
    const std::string value = attr.substr(colon + 2);
    char *end = nullptr;
    const unsigned long long root = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0')
        return "FLAME_GRAPH root value unreadable: " + value;
    for (std::size_t j = window.lo; j <= window.hi; ++j) {
        if (oracle.sums(corpus, FilterKey{}, j).gpu_ns == root)
            return "";
    }
    return dc::strformat(
        "FLAME_GRAPH root %llu, expected %" PRIu64, root,
        oracle.sums(corpus, FilterKey{}, window.hi).gpu_ns);
}

std::string
checkTwin(const ProfiledRun &run)
{
    if (run.twin_equal)
        return "";
    return "profiled and unprofiled runs of " + run.facts.run_id +
           " disagree on kernel count or GPU time";
}

std::string
checkRecovered(const Oracle &oracle, int corpus,
               const std::vector<std::string> &run_ids,
               const std::vector<dc::server::KernelRow> &rows,
               std::uint32_t k)
{
    std::vector<std::string> got = run_ids;
    std::sort(got.begin(), got.end());
    const std::vector<std::string> want =
        oracle.runIds(corpus, oracle.acked());
    if (got != want) {
        return dc::strformat("recovered corpus %s holds %zu runs, "
                             "expected its %zu acked runs",
                             kCorpora[corpus], got.size(), want.size());
    }
    const std::size_t all = oracle.acked();
    return checkTopKernels(oracle, corpus, FilterKey{}, Window{all, all},
                           rows, k);
}

} // namespace perfbench
