/**
 * @file
 * Telemetry sample aggregation, the telemetry.json artifact format,
 * and the --explain chart renderer.
 */

#include "core/telemetry.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/ascii_chart.hh"
#include "common/atomic_file.hh"
#include "common/fmt.hh"

namespace syncperf::core
{

namespace fs = std::filesystem;

namespace
{

/**
 * Counters and histogram bounds are integral and stay far below
 * 2^53, where double is exact; the serializer prints integral
 * doubles without a fraction, so round-trips are byte-stable.
 */
JsonValue
num(std::uint64_t v)
{
    return JsonValue(static_cast<double>(v));
}

std::uint64_t
u64(double v)
{
    return static_cast<std::uint64_t>(v);
}

/** Nearest integer, for the prose under a chart. */
std::uint64_t
rounded(double v)
{
    return static_cast<std::uint64_t>(v + 0.5);
}

JsonValue
histogramToJson(const Histogram &h)
{
    JsonValue buckets = JsonValue::array();
    const std::vector<Histogram::Bucket> &bs = h.buckets();
    for (std::size_t i = 0; i < bs.size(); ++i) {
        const Histogram::Bucket &b = bs[i];
        if (b.count == 0)
            continue;
        JsonValue jb = JsonValue::object();
        jb.set("count", num(b.count));
        jb.set("index", num(static_cast<std::uint64_t>(i)));
        jb.set("max", num(b.max));
        jb.set("min", num(b.min));
        jb.set("sum", num(b.sum));
        buckets.push(std::move(jb));
    }
    JsonValue out = JsonValue::object();
    out.set("buckets", std::move(buckets));
    out.set("count", num(h.count()));
    out.set("max", num(h.max()));
    out.set("mean", JsonValue(h.mean()));
    out.set("min", num(h.min()));
    out.set("sum", num(h.sum()));
    return out;
}

} // namespace

void
TelemetrySample::addStats(const sim::StatSet &stats)
{
    for (const auto &[name, value] : stats.all())
        counters[name] += value;
    for (int i = 0; i < static_cast<int>(sim::HistProbe::Count); ++i) {
        const auto p = static_cast<sim::HistProbe>(i);
        const Histogram &h = stats.hist(p);
        if (!h.empty())
            histograms[sim::histProbeName(p)].merge(h);
    }
}

void
TelemetrySample::merge(const TelemetrySample &other)
{
    for (const auto &[name, value] : other.counters)
        counters[name] += value;
    for (const auto &[name, h] : other.histograms)
        histograms[name].merge(h);
}

std::uint64_t
TelemetrySample::counter(const std::string &name) const
{
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

JsonValue
TelemetrySample::toJson() const
{
    JsonValue cs = JsonValue::object();
    for (const auto &[name, value] : counters)
        cs.set(name, num(value));
    JsonValue hs = JsonValue::object();
    for (const auto &[name, h] : histograms)
        hs.set(name, histogramToJson(h));
    JsonValue out = JsonValue::object();
    out.set("counters", std::move(cs));
    out.set("histograms", std::move(hs));
    return out;
}

JsonValue
TelemetryPoint::toJson() const
{
    JsonValue ja = JsonValue::object();
    for (const auto &[name, value] : axes)
        ja.set(name, num(value));
    // Flatten the sample so a point reads as one object with keys
    // in alphabetical order: axes, counters, histograms.
    JsonValue s = sample.toJson();
    JsonValue out = JsonValue::object();
    out.set("axes", std::move(ja));
    for (auto &[key, value] : s.asObject())
        out.set(key, value);
    return out;
}

JsonValue
TelemetryReport::toJson() const
{
    JsonValue pts = JsonValue::array();
    for (const TelemetryPoint &p : points)
        pts.push(p.toJson());
    JsonValue out = JsonValue::object();
    out.set("experiment", JsonValue(experiment));
    out.set("points", std::move(pts));
    out.set("schema", JsonValue("syncperf-telemetry-v1"));
    out.set("system", JsonValue(system));
    return out;
}

Status
TelemetryReport::writeFile(const fs::path &path) const
{
    AtomicFile file;
    if (Status s = file.open(path); !s.isOk())
        return s;
    file.stream() << toJson().dump(2) << '\n';
    return file.commit();
}

Result<TelemetryReport>
readTelemetryFile(const fs::path &path)
{
    std::ifstream in(path);
    if (!in)
        return Status::error(ErrorCode::IoError, "cannot open {}",
                             path.string());
    std::ostringstream text;
    text << in.rdbuf();
    Result<JsonValue> parsed = parseJson(text.str());
    if (!parsed.isOk())
        return parsed.status();
    const JsonValue &root = parsed.value();
    if (!root.isObject())
        return Status::error(ErrorCode::ParseError,
                             "{}: telemetry root is not an object",
                             path.string());

    TelemetryReport report;
    report.experiment = root.stringOr("experiment", "");
    report.system = root.stringOr("system", "");
    const JsonValue *points = root.find("points");
    if (points == nullptr || !points->isArray())
        return report;
    for (const JsonValue &pv : points->asArray()) {
        if (!pv.isObject())
            continue;
        TelemetryPoint pt;
        if (const JsonValue *axes = pv.find("axes");
            axes != nullptr && axes->isObject()) {
            for (const auto &[name, value] : axes->asObject())
                pt.axes.emplace_back(name, u64(value.asNumber()));
        }
        if (const JsonValue *cs = pv.find("counters");
            cs != nullptr && cs->isObject()) {
            for (const auto &[name, value] : cs->asObject())
                pt.sample.counters[name] = u64(value.asNumber());
        }
        if (const JsonValue *hs = pv.find("histograms");
            hs != nullptr && hs->isObject()) {
            for (const auto &[name, hv] : hs->asObject()) {
                Histogram h;
                if (const JsonValue *bs = hv.find("buckets");
                    bs != nullptr && bs->isArray()) {
                    for (const JsonValue &bv : bs->asArray()) {
                        Histogram::Bucket b;
                        b.count = u64(bv.numberOr("count", 0));
                        b.min = u64(bv.numberOr("min", 0));
                        b.max = u64(bv.numberOr("max", 0));
                        b.sum = u64(bv.numberOr("sum", 0));
                        h.setBucket(
                            static_cast<int>(bv.numberOr("index", 0)),
                            b);
                    }
                }
                pt.sample.histograms[name] = std::move(h);
            }
        }
        report.points.push_back(std::move(pt));
    }
    return report;
}

fs::path
telemetryPathFor(const fs::path &dir, const std::string &csv_file)
{
    std::string stem = csv_file;
    if (const std::size_t dot = stem.rfind(".csv");
        dot != std::string::npos && dot == stem.size() - 4)
        stem.resize(dot);
    return dir / (stem + ".telemetry.json");
}

namespace
{

std::uint64_t
axisOr(const TelemetryPoint &pt, const std::string &name,
       std::uint64_t fallback)
{
    for (const auto &[axis, value] : pt.axes)
        if (axis == name)
            return value;
    return fallback;
}

double
histMeanOr(const TelemetrySample &s, const std::string &name,
           double fallback)
{
    const auto it = s.histograms.find(name);
    return it == s.histograms.end() ? fallback : it->second.mean();
}

/** Telemetry reports of one system directory, keyed by CSV name. */
std::map<std::string, TelemetryReport>
loadSystemReports(const fs::path &system_dir)
{
    std::map<std::string, TelemetryReport> reports;
    std::vector<fs::path> files;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(system_dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.size() > 15 &&
            name.rfind(".telemetry.json") == name.size() - 15)
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    for (const fs::path &f : files) {
        Result<TelemetryReport> r = readTelemetryFile(f);
        if (r.isOk() && !r.value().experiment.empty())
            reports.emplace(r.value().experiment,
                            std::move(r).value());
    }
    return reports;
}

/**
 * The false-sharing knee (paper Fig. "atomic array" family): total
 * line ping-pongs at the largest thread count, one x per stride.
 * Below one cache line per thread, every update steals the line
 * back; at stride >= 16 ints (64 B) the count collapses to zero.
 */
void
explainFalseSharing(const std::map<std::string, TelemetryReport> &reports,
                    std::ostream &out)
{
    const std::string prefix = "omp_atomic_array_s";
    const std::string suffix = "_int.csv";
    std::vector<std::pair<std::uint64_t, double>> by_stride;
    std::uint64_t threads = 0;
    for (const auto &[file, report] : reports) {
        if (file.rfind(prefix, 0) != 0 ||
            file.size() <= prefix.size() + suffix.size() ||
            file.compare(file.size() - suffix.size(), suffix.size(),
                         suffix) != 0)
            continue;
        const std::string mid = file.substr(
            prefix.size(), file.size() - prefix.size() - suffix.size());
        if (mid.empty() ||
            mid.find_first_not_of("0123456789") != std::string::npos)
            continue;
        const std::uint64_t stride = std::stoull(mid);
        const TelemetryPoint *best = nullptr;
        for (const TelemetryPoint &pt : report.points) {
            if (best == nullptr ||
                axisOr(pt, "threads", 0) > axisOr(*best, "threads", 0))
                best = &pt;
        }
        if (best == nullptr)
            continue;
        threads = axisOr(*best, "threads", 0);
        by_stride.emplace_back(
            stride, static_cast<double>(
                        best->sample.counter("cpu.line_ping_pong")));
    }
    if (by_stride.size() < 2)
        return;
    std::sort(by_stride.begin(), by_stride.end());

    std::vector<double> xs;
    std::vector<double> ys;
    for (const auto &[stride, pingpongs] : by_stride) {
        xs.push_back(static_cast<double>(stride));
        ys.push_back(pingpongs);
    }
    AsciiChart chart(xs);
    chart.setTitle(format("false sharing: omp atomic array (int, {} "
                          "threads)",
                          threads));
    chart.setXLabel("stride (ints)");
    chart.setYLabel("line ping-pongs");
    chart.addSeries("cpu.line_ping_pong", ys);
    out << chart.render(76, 12) << '\n';
    out << format("  stride {} x 4 B spans a full 64 B line, so each "
                  "thread owns its line:\n  ping-pongs fall from {} "
                  "(stride {}) to {} -- the figure's knee.\n\n",
                  by_stride.back().first, rounded(ys.front()),
                  by_stride.front().first, rounded(ys.back()));
}

/**
 * The contended-atomic 1/T collapse: the per-line exclusive service
 * slot serializes updates, so the mean acquisition wait grows with
 * the thread count while per-thread throughput falls as 1/T.
 */
void
explainCpuContention(const std::map<std::string, TelemetryReport> &reports,
                     std::ostream &out)
{
    const auto it = reports.find("omp_atomic_update_int.csv");
    if (it == reports.end() || it->second.points.size() < 2)
        return;
    std::vector<double> xs;
    std::vector<double> ys;
    for (const TelemetryPoint &pt : it->second.points) {
        xs.push_back(static_cast<double>(axisOr(pt, "threads", 0)));
        ys.push_back(
            histMeanOr(pt.sample, "cpu.acq_wait_ticks", 0.0));
    }
    AsciiChart chart(xs);
    chart.setTitle("atomic contention: omp atomic update (int)");
    chart.setXLabel("threads");
    chart.setYLabel("mean acq wait (ticks)");
    chart.addSeries("cpu.acq_wait_ticks mean", ys);
    out << chart.render(76, 12) << '\n';
    out << format("  every update queues on one line's exclusive "
                  "slot: mean wait grows from\n  {} to {} ticks "
                  "across the sweep -- per-thread throughput "
                  "collapses as 1/T.\n\n",
                  rounded(ys.front()), rounded(ys.back()));
}

/**
 * The GPU atomic serialization collapse: all lanes target one
 * address, so the L2 atomic unit's service interval queues warps and
 * the mean wait grows with threads per block.
 */
void
explainGpuAtomics(const std::map<std::string, TelemetryReport> &reports,
                  std::ostream &out)
{
    const auto it = reports.find("cuda_atomicadd_int.csv");
    if (it == reports.end())
        return;
    std::uint64_t blocks = 0;
    for (const TelemetryPoint &pt : it->second.points)
        blocks = std::max(blocks, axisOr(pt, "blocks", 0));
    std::vector<double> xs;
    std::vector<double> ys;
    for (const TelemetryPoint &pt : it->second.points) {
        if (axisOr(pt, "blocks", 0) != blocks)
            continue;
        xs.push_back(
            static_cast<double>(axisOr(pt, "threads_per_block", 0)));
        ys.push_back(
            histMeanOr(pt.sample, "gpu.atomic_wait_ticks", 0.0));
    }
    if (xs.size() < 2)
        return;
    AsciiChart chart(xs);
    chart.setTitle(
        format("GPU atomic serialization: atomicAdd (int, {} blocks)",
               blocks));
    chart.setXLabel("threads per block");
    chart.setYLabel("mean L2 wait (ticks)");
    chart.setLogX(true);
    chart.addSeries("gpu.atomic_wait_ticks mean", ys);
    out << chart.render(76, 12) << '\n';
    out << format("  one address, one L2 atomic unit: mean queue "
                  "wait grows from {} to {}\n  ticks as the block "
                  "fills -- the paper's 1/T atomic collapse.\n\n",
                  rounded(ys.front()), rounded(ys.back()));
}

/**
 * The loop-batching annotation: how much of each experiment's timed
 * simulation the steady-state batcher covered algebraically
 * (docs/performance.md, "Loop batching"). Wall-clock bookkeeping
 * only -- batching never changes a measured value.
 */
void
explainLoopBatch(
    const std::string &system,
    const std::map<std::string, sim::LoopBatchCounters> &ratios,
    std::ostream &out)
{
    const std::string prefix = system + "/";
    std::vector<std::pair<std::string, const sim::LoopBatchCounters *>>
        rows;
    for (const auto &[key, c] : ratios) {
        if (key.rfind(prefix, 0) == 0)
            rows.emplace_back(key.substr(prefix.size()), &c);
    }
    if (rows.empty())
        return;
    out << "loop batching (batched / total timed iterations):\n";
    for (const auto &[file, c] : rows) {
        const double ratio =
            c->total_iters == 0
                ? 0.0
                : 100.0 * static_cast<double>(c->batched_iters) /
                      static_cast<double>(c->total_iters);
        out << format("  {}: {}% batched ({} of {} iters, "
                      "{} windows, {} fallbacks)\n",
                      file, rounded(ratio), c->batched_iters,
                      c->total_iters, c->windows, c->fallbacks);
    }
    out << '\n';
}

} // namespace

Status
explainCampaign(const fs::path &dir, std::ostream &out,
                const std::map<std::string, sim::LoopBatchCounters>
                    *loop_batch)
{
    std::vector<fs::path> system_dirs;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (entry.is_directory())
            system_dirs.push_back(entry.path());
    }
    std::sort(system_dirs.begin(), system_dirs.end());

    int rendered = 0;
    for (const fs::path &system_dir : system_dirs) {
        const std::map<std::string, TelemetryReport> reports =
            loadSystemReports(system_dir);
        if (reports.empty())
            continue;
        out << "== " << system_dir.filename().string() << " ("
            << reports.size() << " telemetry files) ==\n\n";
        explainFalseSharing(reports, out);
        explainCpuContention(reports, out);
        explainGpuAtomics(reports, out);
        if (loop_batch != nullptr) {
            explainLoopBatch(system_dir.filename().string(),
                             *loop_batch, out);
        } else {
            out << "loop batching: n/a (no measurements ran in this "
                   "process; batch ratios\n  are an in-memory side "
                   "channel of the measuring run, never an "
                   "artifact)\n\n";
        }
        ++rendered;
    }
    if (rendered == 0)
        return Status::error(
            ErrorCode::InvalidArgument,
            "no telemetry found under {} (run the campaign with "
            "--telemetry first)",
            dir.string());
    return Status::ok();
}

} // namespace syncperf::core
