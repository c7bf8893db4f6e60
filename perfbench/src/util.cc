// Timing helpers, the span recorder, input generation and the
// warehouse under test.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <random>
#include <sstream>
#include <thread>

#include <sys/resource.h>

#include "bench.h"
#include "profiler/profile_db.h"

namespace perfbench {

namespace dw = dc::workloads;
namespace fs = std::filesystem;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
peakRssMb()
{
    struct rusage usage {};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::uint64_t
dirBytes(const std::string &dir)
{
    std::uint64_t total = 0;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
        if (it->is_regular_file(ec))
            total += it->file_size(ec);
    }
    return total;
}

void
removeTree(const std::string &dir)
{
    std::error_code ec;
    fs::remove_all(dir, ec);
}

unsigned
loadThreadBudget()
{
    return std::max(2u, std::thread::hardware_concurrency());
}

// ------------------------------------------------------------ tracing

namespace {

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

/// The span open on this thread (parent of the next one).
thread_local std::uint64_t t_open_span = 0;

} // namespace

Tracer::Scope::Scope(Tracer *tracer, const char *name, std::uint64_t request)
{
    if (tracer == nullptr || !tracer->recording())
        return;
    tracer_ = tracer;
    span_.name = name;
    span_.request = request;
    span_.id = tracer->next_id_.fetch_add(1, std::memory_order_relaxed);
    span_.parent = t_open_span;
    t_open_span = span_.id;
    span_.start_ns = nowNs();
}

Tracer::Scope::~Scope()
{
    if (tracer_ == nullptr)
        return;
    span_.end_ns = nowNs();
    t_open_span = span_.parent;
    ThreadBuffer &buffer = tracer_->buffer();
    span_.tid = buffer.tid;
    buffer.spans.push_back(span_);
}

Tracer::ThreadBuffer &
Tracer::buffer()
{
    thread_local const Tracer *owner = nullptr;
    thread_local ThreadBuffer *mine = nullptr;
    if (owner != this) {
        std::lock_guard<std::mutex> lock(mutex_);
        buffers_.push_back(std::make_unique<ThreadBuffer>());
        buffers_.back()->tid = static_cast<std::uint32_t>(buffers_.size());
        mine = buffers_.back().get();
        owner = this;
    }
    return *mine;
}

std::vector<Tracer::Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> out;
    for (const auto &buffer : buffers_)
        out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    const std::vector<Span> all = spans();
    std::uint64_t origin = UINT64_MAX;
    for (const Span &span : all)
        origin = std::min(origin, span.start_ns);
    std::fprintf(out, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &span = all[i];
        std::fprintf(out,
                     "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%llu,"
                     "\"parent\":%llu,\"request\":%llu}}%s\n",
                     span.name, span.tid,
                     static_cast<double>(span.start_ns - origin) / 1e3,
                     static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                     static_cast<unsigned long long>(span.id),
                     static_cast<unsigned long long>(span.parent),
                     static_cast<unsigned long long>(span.request),
                     i + 1 < all.size() ? "," : "");
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
}

// ------------------------------------------------------------- inputs

RunSpec
makeRunSpec(std::uint64_t seed, std::size_t index,
            const std::string &id_prefix)
{
    const std::size_t cycle = index / kMixCycle;
    std::mt19937_64 shuffle_rng(seed * 0x9e3779b97f4a7c15ull + cycle);
    std::vector<std::size_t> order(kMixCycle);
    for (std::size_t i = 0; i < kMixCycle; ++i)
        order[i] = i;
    for (std::size_t i = kMixCycle - 1; i > 0; --i)
        std::swap(order[i], order[shuffle_rng() % (i + 1)]);
    std::size_t code = order[index % kMixCycle];
    const bool pc_sampling = (code + cycle) % 4 == 0;

    RunSpec spec;
    spec.run_id = id_prefix + std::to_string(index);
    dw::RunConfig &config = spec.config;
    config.workload = static_cast<dw::WorkloadId>(code % dw::kNumWorkloads);
    code /= dw::kNumWorkloads;
    config.framework = static_cast<dw::FrameworkSel>(code % 2);
    code /= 2;
    config.platform = static_cast<dw::PlatformSel>(code % 2);
    code /= 2;
    config.profiler = code % 2 == 0 ? dw::ProfilerMode::kDeepContext
                                    : dw::ProfilerMode::kDeepContextNative;
    config.iterations = 2;
    std::mt19937_64 run_rng(seed ^ (0xc2b2ae3d27d4eb4full * (index + 1)));
    config.seed = run_rng();
    // PC sampling on a quarter of each cycle; which quarter rotates
    // with the cycle, so whole cycles hold the same make-up.
    config.knobs.pc_sampling = pc_sampling;
    spec.corpus = config.framework == dw::FrameworkSel::kTorch ? 0 : 1;
    return spec;
}

bool
sameDeviceFigures(const dw::RunResult &profiled, const dw::RunResult &plain)
{
    return plain.kernel_count == profiled.kernel_count &&
           plain.gpu_kernel_time_ns == profiled.gpu_kernel_time_ns;
}

ProfiledRun
profileRun(const RunSpec &spec, Tracer *tracer, std::uint64_t request,
           std::unique_ptr<dc::prof::ProfileDb> *profile)
{
    ProfiledRun run;
    dw::RunConfig config = spec.config;
    config.keep_profile = true;
    dw::RunResult profiled;
    {
        Tracer::Scope span(tracer, "workloads.runWorkload.profiled",
                           request);
        const Clock::time_point start = Clock::now();
        profiled = dw::runWorkload(config);
        run.profiled_s = secondsSince(start);
    }
    config.profiler = dw::ProfilerMode::kNone;
    config.keep_profile = false;
    dw::RunResult plain;
    {
        Tracer::Scope span(tracer, "workloads.runWorkload.plain", request);
        const Clock::time_point start = Clock::now();
        plain = dw::runWorkload(config);
        run.plain_s = secondsSince(start);
    }
    run.twin_equal = sameDeviceFigures(profiled, plain);
    run.facts.run_id = spec.run_id;
    run.facts.corpus = spec.corpus;
    run.facts.model = static_cast<int>(spec.config.workload);
    run.facts.platform = static_cast<int>(spec.config.platform);
    run.facts.gpu_ns = static_cast<std::uint64_t>(profiled.gpu_kernel_time_ns);
    run.facts.kernels = profiled.kernel_count;
    run.paths = profiled.profiler_stats.paths_inserted;
    run.callpath_requests = profiled.dlmonitor_stats.callpath_requests;
    run.callpath_hits = profiled.dlmonitor_stats.cache_hits;
    if (profile != nullptr) {
        *profile = std::move(profiled.profile);
        return run;
    }
    Tracer::Scope span(tracer, "ProfileDb.serialize", request);
    const Clock::time_point start = Clock::now();
    run.text = profiled.profile->serialize();
    run.serialize_s = secondsSince(start);
    return run;
}

// ---------------------------------------------------------- warehouse

Warehouse::Warehouse(std::string root) : root_(std::move(root)) {}

Warehouse::~Warehouse() { shutdown(); }

bool
Warehouse::start(bool create_corpora, std::string *error)
{
    dc::service::WarehouseManager::Options options;
    options.root_dir = root_;
    options.store.log_sync = true;
    manager_ = std::make_unique<dc::service::WarehouseManager>(options);
    const Clock::time_point open_start = Clock::now();
    for (const char *id : kCorpora) {
        const dc::service::CorpusHandle handle =
            create_corpora ? manager_->create(id, error)
                           : manager_->open(id, error);
        if (handle == nullptr)
            return false;
    }
    open_s_ = secondsSince(open_start);
    server_ = std::make_unique<dc::server::WireServer>(*manager_);
    return server_->start(error);
}

void
Warehouse::shutdown()
{
    if (server_ != nullptr) {
        server_->drain();
        server_->stop();
        server_.reset();
    }
    manager_.reset();
}

bool
Warehouse::connect(dc::server::WireClient *client, int corpus,
                   std::string *error) const
{
    if (!client->connect("127.0.0.1", server_->port(), error))
        return false;
    client->setCorpus(kCorpora[corpus]);
    return true;
}

std::map<std::string, std::uint64_t>
fetchStats(dc::server::WireClient &client)
{
    std::map<std::string, std::uint64_t> out;
    const dc::server::WireClient::Result result = client.stats();
    if (!result.ok || result.status != dc::server::Status::kOk)
        return out;
    std::istringstream lines(result.payload);
    std::string line;
    while (std::getline(lines, line)) {
        const std::size_t eq = line.find('=');
        if (eq != std::string::npos)
            out[line.substr(0, eq)] =
                std::strtoull(line.c_str() + eq + 1, nullptr, 10);
    }
    return out;
}

} // namespace perfbench
