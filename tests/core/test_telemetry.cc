/**
 * @file
 * Tests for the telemetry layer: sample folding and merging, the
 * telemetry.json artifact round trip, campaign emission (including
 * --jobs invariance and the off-by-default contract), and the
 * --explain renderer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <unistd.h>

#include "common/json.hh"
#include "core/campaign.hh"
#include "core/telemetry.hh"

namespace syncperf::core
{
namespace
{

namespace fs = std::filesystem;

TEST(TelemetrySample, AddStatsFoldsNonzeroActivityOnly)
{
    sim::StatSet stats;
    stats.inc(sim::Probe::CpuLinePingPong, 3);
    stats.inc("ad_hoc", 2);
    stats.record(sim::HistProbe::CpuAcqWaitTicks, 10);
    stats.record(sim::HistProbe::CpuAcqWaitTicks, 20);

    TelemetrySample s;
    s.addStats(stats);
    EXPECT_EQ(s.counter("cpu.line_ping_pong"), 3u);
    EXPECT_EQ(s.counter("ad_hoc"), 2u);
    EXPECT_EQ(s.counter("cpu.l1_hit"), 0u);
    EXPECT_EQ(s.counters.count("cpu.l1_hit"), 0u)
        << "zero probes must not appear";
    ASSERT_EQ(s.histograms.count("cpu.acq_wait_ticks"), 1u);
    EXPECT_EQ(s.histograms.at("cpu.acq_wait_ticks").count(), 2u);
    EXPECT_EQ(s.histograms.count("cpu.lock_wait_ticks"), 0u)
        << "empty histograms must not appear";
}

TEST(TelemetrySample, MergeAccumulatesCountersAndHistograms)
{
    TelemetrySample a, b;
    a.counters["x"] = 1;
    a.histograms["h"].record(4);
    b.counters["x"] = 2;
    b.counters["y"] = 7;
    b.histograms["h"].record(5);

    a.merge(b);
    EXPECT_EQ(a.counter("x"), 3u);
    EXPECT_EQ(a.counter("y"), 7u);
    EXPECT_EQ(a.histograms.at("h").count(), 2u);
    EXPECT_EQ(a.histograms.at("h").sum(), 9u);
}

TEST(TelemetrySample, MergeOrderingIsImmaterial)
{
    sim::StatSet s1, s2;
    s1.inc(sim::Probe::GpuSyncthreads, 5);
    s1.record(sim::HistProbe::GpuBarrierSpreadTicks, 100);
    s2.inc(sim::Probe::GpuSyncthreads, 9);
    s2.record(sim::HistProbe::GpuBarrierSpreadTicks, 50);

    TelemetrySample ab, ba;
    ab.addStats(s1);
    ab.addStats(s2);
    ba.addStats(s2);
    ba.addStats(s1);
    EXPECT_EQ(ab, ba);
}

TEST(TelemetryReport, JsonFileRoundTrip)
{
    TelemetryReport report;
    report.experiment = "omp_barrier.csv";
    report.system = "system_x";
    TelemetryPoint pt;
    pt.axes.emplace_back("threads", 8);
    pt.sample.counters["cpu.l1_hit"] = 41;
    pt.sample.histograms["cpu.acq_wait_ticks"].record(0);
    pt.sample.histograms["cpu.acq_wait_ticks"].record(123456);
    report.points.push_back(pt);

    const fs::path path =
        fs::temp_directory_path() /
        ("syncperf_telemetry_rt_" + std::to_string(::getpid()) +
         ".json");
    ASSERT_TRUE(report.writeFile(path).isOk());

    const auto loaded = readTelemetryFile(path);
    ASSERT_TRUE(loaded.isOk()) << loaded.status().toString();
    const TelemetryReport &back = loaded.value();
    EXPECT_EQ(back.experiment, report.experiment);
    EXPECT_EQ(back.system, report.system);
    ASSERT_EQ(back.points.size(), 1u);
    EXPECT_EQ(back.points[0].axes, report.points[0].axes);
    EXPECT_EQ(back.points[0].sample, report.points[0].sample)
        << "histogram buckets must survive serialization exactly";
    fs::remove(path);
}

TEST(TelemetryReport, WriteIsDeterministic)
{
    TelemetrySample s;
    s.counters["b"] = 2;
    s.counters["a"] = 1;
    s.histograms["h"].record(9);
    TelemetryReport report;
    report.experiment = "x.csv";
    report.system = "sys";
    report.points.push_back(TelemetryPoint{{{"threads", 2}}, s});

    const std::string once = report.toJson().dump(2);
    const std::string twice = report.toJson().dump(2);
    EXPECT_EQ(once, twice);
    // Keys are emitted in sorted order, so "a" precedes "b".
    EXPECT_LT(once.find("\"a\""), once.find("\"b\""));
}

TEST(TelemetryPath, ReplacesCsvSuffix)
{
    EXPECT_EQ(telemetryPathFor("out", "omp_barrier.csv"),
              fs::path("out") / "omp_barrier.telemetry.json");
    EXPECT_EQ(telemetryPathFor("out", "weird_name"),
              fs::path("out") / "weird_name.telemetry.json");
}

/** Every regular file under @p dir, as relative path -> bytes. */
std::map<std::string, std::string>
snapshotTree(const fs::path &dir)
{
    std::map<std::string, std::string> out;
    if (!fs::exists(dir))
        return out;
    for (const auto &e : fs::recursive_directory_iterator(dir)) {
        if (!e.is_regular_file())
            continue;
        std::ifstream in(e.path(), std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        out[fs::relative(e.path(), dir).string()] = bytes.str();
    }
    return out;
}

MeasurementConfig
tinyProtocol()
{
    auto cfg = MeasurementConfig::simDefaults();
    cfg.runs = 2;
    cfg.attempts = 2;
    cfg.n_iter = 10;
    cfg.n_unroll = 2;
    return cfg;
}

TEST(TelemetryCampaign, ArtifactsAreJobsInvariantAndOffByDefault)
{
    const auto base =
        fs::temp_directory_path() /
        ("syncperf_telemetry_campaign_" + std::to_string(::getpid()));
    fs::remove_all(base);

    auto cpu = cpusim::CpuConfig::system2(); // jitter-free
    cpu.cores_per_socket = 2;                // keep the sweep cheap

    auto telem_cfg = tinyProtocol();
    telem_cfg.telemetry = true;

    CampaignOptions serial;
    serial.output_dir = (base / "serial").string();
    serial.quick = true;
    serial.jobs = 1;
    auto parallel = serial;
    parallel.output_dir = (base / "parallel").string();
    parallel.jobs = 4;
    auto off = serial;
    off.output_dir = (base / "off").string();

    ASSERT_TRUE(runCampaign({{cpu, telem_cfg}}, serial).ok());
    ASSERT_TRUE(runCampaign({{cpu, telem_cfg}}, parallel).ok());
    ASSERT_TRUE(runCampaign({{cpu, tinyProtocol()}}, off).ok());

    const auto serial_tree = snapshotTree(base / "serial");
    const auto parallel_tree = snapshotTree(base / "parallel");
    const auto off_tree = snapshotTree(base / "off");

    int telemetry_files = 0;
    for (const auto &[file, bytes] : serial_tree) {
        if (file.find(".telemetry.json") != std::string::npos)
            ++telemetry_files;
        const auto it = parallel_tree.find(file);
        ASSERT_NE(it, parallel_tree.end()) << file << " missing";
        EXPECT_EQ(bytes, it->second) << file << " differs across jobs";
    }
    EXPECT_EQ(serial_tree.size(), parallel_tree.size());
    EXPECT_GT(telemetry_files, 0);

    // Every artifact carries the schema tag, names its experiment and
    // system, and has at least one point whose axes are positive and
    // whose counters are non-negative integers. (The histograms'
    // count/sum/bucket-range invariants hold by construction and are
    // pinned by the Histogram tests and the round trip above.)
    for (const auto &[file, bytes] : serial_tree) {
        if (file.find(".telemetry.json") == std::string::npos)
            continue;
        const auto parsed = parseJson(bytes);
        ASSERT_TRUE(parsed.isOk()) << file;
        const JsonValue &doc = parsed.value();
        EXPECT_EQ(doc.stringOr("schema", ""), "syncperf-telemetry-v1")
            << file;
        EXPECT_FALSE(doc.stringOr("experiment", "").empty()) << file;
        EXPECT_FALSE(doc.stringOr("system", "").empty()) << file;
        const JsonValue *points = doc.find("points");
        ASSERT_TRUE(points != nullptr && points->isArray()) << file;
        EXPECT_FALSE(points->asArray().empty()) << file;
        for (const JsonValue &pt : points->asArray()) {
            const JsonValue *axes = pt.find("axes");
            ASSERT_TRUE(axes != nullptr && axes->isObject()) << file;
            EXPECT_FALSE(axes->asObject().empty()) << file;
            for (const auto &[axis, v] : axes->asObject())
                EXPECT_TRUE(v.isNumber() && v.asNumber() >= 1 &&
                            v.asNumber() == std::floor(v.asNumber()))
                    << file << ": axis " << axis;
            const JsonValue *counters = pt.find("counters");
            ASSERT_TRUE(counters != nullptr && counters->isObject())
                << file;
            for (const auto &[name, v] : counters->asObject())
                EXPECT_TRUE(v.isNumber() && v.asNumber() >= 0 &&
                            v.asNumber() == std::floor(v.asNumber()))
                    << file << ": counter " << name;
        }
    }

    // Telemetry off: no artifact files, and the rest of the tree is
    // byte-identical to the instrumented run (collection never
    // perturbs measured values).
    for (const auto &[file, bytes] : off_tree) {
        EXPECT_EQ(file.find(".telemetry.json"), std::string::npos)
            << "telemetry off wrote " << file;
        const auto it = serial_tree.find(file);
        ASSERT_NE(it, serial_tree.end());
        EXPECT_EQ(bytes, it->second) << file << " differs";
    }
    EXPECT_EQ(off_tree.size(),
              serial_tree.size() -
                  static_cast<std::size_t>(telemetry_files));

    // The explain renderer finds the knee in what the campaign wrote.
    std::ostringstream explained;
    ASSERT_TRUE(explainCampaign(base / "serial", explained).isOk());
    EXPECT_NE(explained.str().find("false sharing"), std::string::npos);
    EXPECT_NE(explained.str().find("cpu.line_ping_pong"),
              std::string::npos);

    EXPECT_FALSE(explainCampaign(base / "off", std::cout).isOk())
        << "explain must report when no telemetry exists";
    fs::remove_all(base);
}

} // namespace
} // namespace syncperf::core
