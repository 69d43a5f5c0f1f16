// Telemetry layer tests: trace rings (wrap/drop-oldest, concurrent
// recording), the metrics registry (atomicity, stable handles), JSON
// escaping/parsing, and RunReport / MetricsLogger round-trips.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/memory.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace bpar::obs {
namespace {

// Restores the tracing flag and drops all recorded events around each test
// so the suite's tests cannot contaminate each other.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_tracing_enabled(false);
    clear();
  }
  void TearDown() override {
    set_tracing_enabled(false);
    clear();
  }
};

TEST_F(TraceTest, DisabledTracingRecordsNothing) {
  const std::size_t before = events_held();
  const std::uint16_t id = intern_name("test.disabled");
  record_span(id, 10, 20);
  record_counter(id, 30, 7);
  record_instant(id, 40);
  {
    BPAR_SPAN("test.disabled_macro");
  }
  EXPECT_EQ(events_held(), before);
}

TEST_F(TraceTest, InternReturnsStableIds) {
  const std::uint16_t a = intern_name("test.intern_a");
  const std::uint16_t b = intern_name("test.intern_b");
  EXPECT_NE(a, 0);
  EXPECT_NE(a, b);
  EXPECT_EQ(intern_name("test.intern_a"), a);
  EXPECT_EQ(interned_name(a), "test.intern_a");
  EXPECT_EQ(interned_name(0), "<overflow>");
}

TEST_F(TraceTest, DurationRoundTripsThroughFloatPayload) {
  TraceEvent ev;
  ev.payload = 0;
  EXPECT_EQ(ev.duration_ns(), 0.0);
  set_tracing_enabled(true);
  const std::uint16_t id = intern_name("test.duration");
  record_span(id, 1000, 251000);  // 250 us
  set_tracing_enabled(false);
  bool found = false;
  for (const auto& t : collect()) {
    for (const auto& e : t.events) {
      if (e.name != id) continue;
      found = true;
      EXPECT_EQ(e.kind, EventKind::kSpan);
      EXPECT_EQ(e.ts_ns, 1000U);
      EXPECT_NEAR(e.duration_ns(), 250000.0, 16.0);  // float granularity
    }
  }
  EXPECT_TRUE(found);
}

// Finds the collected trace for the thread labeled `name`.
const ThreadTrace* find_thread(const std::vector<ThreadTrace>& threads,
                               const std::string& name) {
  for (const auto& t : threads) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

TEST_F(TraceTest, RingWrapDropsOldestEvents) {
  const std::size_t saved_capacity = ring_capacity();
  set_ring_capacity(16);
  set_tracing_enabled(true);
  const std::uint16_t id = intern_name("test.wrap");
  std::thread recorder([&] {
    set_thread_name("wrap-thread");
    for (std::uint64_t i = 0; i < 40; ++i) record_instant(id, i + 1);
  });
  recorder.join();
  set_tracing_enabled(false);
  set_ring_capacity(saved_capacity);

  const auto threads = collect();
  const ThreadTrace* t = find_thread(threads, "wrap-thread");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->events.size(), 16U);
  EXPECT_EQ(t->dropped, 24U);
  // Oldest-to-newest order, holding the most recent window.
  for (std::size_t i = 0; i < t->events.size(); ++i) {
    EXPECT_EQ(t->events[i].ts_ns, 25U + i);
  }
}

TEST_F(TraceTest, EightThreadsRecordConcurrently) {
  constexpr int kThreads = 8;
  constexpr int kEventsPerThread = 1000;
  set_tracing_enabled(true);
  std::vector<std::uint16_t> ids;
  ids.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    ids.push_back(intern_name("test.mt" + std::to_string(i)));
  }
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      set_thread_name("mt-" + std::to_string(i));
      for (int j = 0; j < kEventsPerThread; ++j) {
        const std::uint64_t start = now_ns();
        record_span(ids[static_cast<std::size_t>(i)], start, start + 10);
      }
    });
  }
  for (auto& t : threads) t.join();
  set_tracing_enabled(false);

  const auto collected = collect();
  for (int i = 0; i < kThreads; ++i) {
    const ThreadTrace* t =
        find_thread(collected, "mt-" + std::to_string(i));
    ASSERT_NE(t, nullptr) << "thread " << i;
    EXPECT_EQ(t->dropped, 0U);
    std::size_t mine = 0;
    for (const auto& ev : t->events) {
      if (ev.name == ids[static_cast<std::size_t>(i)]) ++mine;
    }
    // The ring may also hold stale events from a previous test's reuse of
    // this OS thread id; count only this test's name id.
    EXPECT_EQ(mine, static_cast<std::size_t>(kEventsPerThread));
  }
}

TEST_F(TraceTest, ExportedTraceJsonParsesAndNamesThreads) {
  set_tracing_enabled(true);
  std::thread recorder([&] {
    set_thread_name("export \"thread\"\n1");
    const std::uint16_t span = intern_name("test.export span\nnewline");
    const std::uint16_t counter = intern_name("test.export_counter");
    const std::uint64_t start = now_ns();
    record_span(span, start, start + 500);
    record_counter(counter, start + 600, 42);
    record_instant(intern_name("test.export_instant"), start + 700);
    record_instant(intern_name("test.export_keyed"), start + 800,
                   0xFFFFFFFFU, 255);
  });
  recorder.join();
  set_tracing_enabled(false);

  std::ostringstream os;
  write_trace_json(os);
  const JsonValue doc = json_parse(os.str());  // must be valid JSON
  ASSERT_TRUE(doc.is_array());
  bool saw_thread = false;
  bool saw_span = false;
  bool saw_counter = false;
  bool saw_instant = false;
  bool saw_keyed = false;
  for (const auto& ev : doc.array) {
    const JsonValue* ph = ev.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->str == "M" &&
        ev.at("args").at("name").str == "export \"thread\"\n1") {
      saw_thread = true;
    }
    if (ph->str == "X" && ev.at("name").str == "test.export span\nnewline") {
      saw_span = true;
      EXPECT_NEAR(ev.at("dur").number, 0.5, 0.01);  // us
    }
    if (ph->str == "C" && ev.at("name").str == "test.export_counter") {
      saw_counter = true;
      EXPECT_EQ(ev.at("args").at("value").number, 42.0);
    }
    if (ph->str == "i" && ev.at("name").str == "test.export_instant") {
      saw_instant = true;
      EXPECT_EQ(ev.find("args"), nullptr);  // an instant without an id
    }
    if (ph->str == "i" && ev.at("name").str == "test.export_keyed") {
      saw_keyed = true;
      EXPECT_EQ(ev.at("args").at("id").number, 4294967295.0);
      EXPECT_EQ(ev.at("args").at("arg").number, 255.0);
    }
  }
  EXPECT_TRUE(saw_thread);
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_keyed);
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string_view("a\x01z", 3)), "a\\u0001z");
  EXPECT_EQ(json_quote("x\"y"), "\"x\\\"y\"");
}

TEST(JsonNumber, NonFiniteBecomesNull) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  // Shortest-round-trip: the parsed value must equal the original.
  const double v = 0.1234567890123456;
  EXPECT_EQ(json_parse(json_number(v)).number, v);
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW((void)json_parse("{"), util::Error);
  EXPECT_THROW((void)json_parse("[1,]"), util::Error);
  EXPECT_THROW((void)json_parse("{} trailing"), util::Error);
  const JsonValue v = json_parse(R"({"a": [1, true, "s\n"], "b": null})");
  EXPECT_TRUE(v.at("a").is_array());
  EXPECT_EQ(v.at("a").array[2].str, "s\n");
  EXPECT_TRUE(v.at("b").is_null());
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(MetricsRegistry, HandlesAreStableAcrossInsertions) {
  Counter& first = Registry::instance().counter("test.stable");
  for (int i = 0; i < 100; ++i) {
    (void)Registry::instance().counter("test.filler" + std::to_string(i));
  }
  EXPECT_EQ(&Registry::instance().counter("test.stable"), &first);
}

TEST(MetricsRegistry, ConcurrentCountsAreExact) {
  Counter& c = Registry::instance().counter("test.concurrent");
  c.reset();
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      // Mix of resolve-by-name and cached-handle updates.
      for (int j = 0; j < kAdds; ++j) {
        Registry::instance().counter("test.concurrent").add();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(MetricsRegistry, SnapshotCarriesAllKinds) {
  Registry& reg = Registry::instance();
  reg.counter("test.snap_counter").add(3);
  reg.gauge("test.snap_gauge").set(2.5);
  reg.series("test.snap_series").append(1.0);
  reg.series("test.snap_series").append(2.0);
  reg.histogram("test.snap_histo", {1.0, 10.0}).add(5.0);
  const Registry::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("test.snap_counter"), 3U);
  EXPECT_EQ(snap.gauges.at("test.snap_gauge"), 2.5);
  EXPECT_EQ(snap.series.at("test.snap_series"),
            (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(snap.histograms.at("test.snap_histo").total, 1.0);
  const std::string compact = reg.format_compact("test.snap_");
  EXPECT_NE(compact.find("test.snap_counter=3"), std::string::npos);
  EXPECT_EQ(compact.find("taskrt."), std::string::npos);
}

TEST(MetricsRegistry, SeriesCapsAtMaxValues) {
  Series s;
  for (std::size_t i = 0; i < Series::kMaxValues + 10; ++i) {
    s.append(static_cast<double>(i));
  }
  EXPECT_EQ(s.values().size(), Series::kMaxValues);
  EXPECT_EQ(s.total_appends(), Series::kMaxValues + 10);
}

TEST(MetricsRegistry, RingSeriesDropsOldestAndKeepsRecording) {
  Series& s = Registry::instance().ring_series("test.ring_series", 128);
  EXPECT_EQ(s.ring_capacity(), 128U);
  for (std::size_t i = 0; i < 20'000; ++i) {
    s.append(static_cast<double>(i));
  }
  // Unlike the append-only mode, a ring never stops recording: the window
  // always holds the most RECENT values.
  EXPECT_EQ(s.total_appends(), 20'000U);
  const std::vector<double> values = s.values();
  ASSERT_EQ(values.size(), 128U);
  EXPECT_EQ(values.front(), 20'000.0 - 128.0);
  EXPECT_EQ(values.back(), 19'999.0);
  // ring_series() is lookup-or-create: a second call resolves to the same
  // cell and can resize the window.
  Series& again = Registry::instance().ring_series("test.ring_series", 64);
  EXPECT_EQ(&again, &s);
  EXPECT_EQ(again.ring_capacity(), 64U);
  EXPECT_EQ(again.values().size(), 64U);
}

TEST(MetricsSampler, WindowRollupsFromDeterministicTicks) {
  Counter& reqs = Registry::instance().counter("test.sampler_reqs");
  SamplerOptions opts;
  opts.rate_series = {"test.sampler_reqs"};
  MetricsSampler sampler(opts);  // never started: driven via sample_at()

  sampler.sample_at(1'000'000'000ULL);
  reqs.add(100);
  sampler.sample_at(2'000'000'000ULL);
  reqs.add(200);
  // Born AFTER the sampler's first tick: the missing-metric baseline must
  // be zero, not "no window".
  Registry::instance().counter("test.sampler_born_late").add(50);
  HistogramCell& lat =
      Registry::instance().histogram("test.sampler_lat", {10.0, 20.0, 50.0});
  for (int i = 0; i < 4; ++i) lat.add(15.0);
  sampler.sample_at(3'000'000'000ULL);
  EXPECT_EQ(sampler.samples(), 3U);
  EXPECT_EQ(sampler.ticks(), 3U);

  const auto two = sampler.counter_window("test.sampler_reqs", 2.0);
  ASSERT_TRUE(two.valid);
  EXPECT_DOUBLE_EQ(two.seconds, 2.0);
  EXPECT_DOUBLE_EQ(two.delta, 300.0);
  EXPECT_DOUBLE_EQ(two.rate_per_s, 150.0);
  const auto one = sampler.counter_window("test.sampler_reqs", 1.0);
  ASSERT_TRUE(one.valid);
  EXPECT_DOUBLE_EQ(one.seconds, 1.0);
  EXPECT_DOUBLE_EQ(one.rate_per_s, 200.0);

  const auto late = sampler.counter_window("test.sampler_born_late", 2.0);
  ASSERT_TRUE(late.valid);
  EXPECT_DOUBLE_EQ(late.delta, 50.0);

  // 4 adds of 15 between ticks 2 and 3 land in bin [10, 20): the delta
  // quantile interpolates to exactly 15 and the delta mean is exact.
  const auto h = sampler.histogram_window("test.sampler_lat", 1.0);
  ASSERT_TRUE(h.valid);
  EXPECT_DOUBLE_EQ(h.count, 4.0);
  EXPECT_DOUBLE_EQ(h.mean, 15.0);
  EXPECT_DOUBLE_EQ(h.p50, 15.0);

  // Per-tick rates were published into the "<name>.rate" ring series.
  const std::vector<double> rates =
      Registry::instance().series("test.sampler_reqs.rate").values();
  ASSERT_EQ(rates.size(), 2U);
  EXPECT_DOUBLE_EQ(rates[0], 100.0);
  EXPECT_DOUBLE_EQ(rates[1], 200.0);
}

// TSan target: 8 writer threads hammer every metric kind while the sampler
// thread snapshots at its fastest cadence. The invariant is exactness —
// no mutation may be lost or torn by a concurrent snapshot.
TEST(MetricsSampler, ConcurrentSnapshotVsWriters) {
  SamplerOptions opts;
  opts.period_ms = 1;
  opts.capacity = 64;
  opts.rate_series = {"test.race_count"};
  MetricsSampler sampler(opts);
  sampler.start();

  constexpr int kThreads = 8;
  constexpr int kOps = 20'000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([] {
      Registry& reg = Registry::instance();
      Counter& c = reg.counter("test.race_count");
      Gauge& g = reg.gauge("test.race_gauge");
      HistogramCell& h = reg.histogram("test.race_lat", {1.0, 10.0, 100.0});
      Series& s = reg.ring_series("test.race_series", 256);
      for (int i = 0; i < kOps; ++i) {
        c.add();
        g.set(static_cast<double>(i));
        h.add(static_cast<double>(i % 128));
        s.append(static_cast<double>(i));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  sampler.stop();

  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kThreads) * kOps;
  const auto snap = Registry::instance().snapshot();
  EXPECT_EQ(snap.counters.at("test.race_count"), kTotal);
  EXPECT_EQ(snap.histograms.at("test.race_lat").total,
            static_cast<double>(kTotal));
  EXPECT_EQ(Registry::instance().series("test.race_series").total_appends(),
            kTotal);
  EXPECT_GE(sampler.ticks(), 1U);
  EXPECT_LE(sampler.samples(), 64U);
}

TEST(RunReportJson, RoundTripsThroughParser) {
  RunReport report;
  report.binary = "test_bin";
  report.params = {{"hidden", "128"}, {"note", "has \"quotes\"\nand line"}};
  report.add_table("scaling", {"cores", "ms"},
                   {{"1", "10.5"}, {"16", "1.2"}});
  Registry::instance().counter("test.report_counter").add(7);

  std::ostringstream os;
  report.write_json(os, Registry::instance().snapshot());
  const JsonValue doc = json_parse(os.str());
  EXPECT_EQ(doc.at("schema_version").number, kReportSchemaVersion);
  EXPECT_EQ(doc.at("type").str, "run_report");
  EXPECT_EQ(doc.at("binary").str, "test_bin");
  EXPECT_EQ(doc.at("params").at("note").str, "has \"quotes\"\nand line");
  const JsonValue& table = doc.at("tables").at("scaling");
  EXPECT_EQ(table.at("header").array[0].str, "cores");
  EXPECT_EQ(table.at("rows").array[1].array[1].str, "1.2");
  EXPECT_EQ(doc.at("metrics").at("counters").at("test.report_counter").number,
            7.0);
}

TEST(MetricsLoggerJsonl, EveryLineParsesWithSchemaVersion) {
  const std::string path = ::testing::TempDir() + "/bpar_test_metrics.jsonl";
  {
    MetricsLogger logger(path, "test_bin", {{"epochs", "2"}});
    logger.log("epoch", {{"epoch", 0.0}, {"loss", 1.25}});
    logger.log("epoch", {{"epoch", 1.0}, {"loss", 0.75}});
  }  // destructor writes the final metrics line
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<JsonValue> lines;
  for (std::string line; std::getline(in, line);) {
    lines.push_back(json_parse(line));
  }
  std::remove(path.c_str());
  ASSERT_EQ(lines.size(), 4U);
  for (const auto& v : lines) {
    EXPECT_EQ(v.at("schema_version").number, kReportSchemaVersion);
  }
  EXPECT_EQ(lines[0].at("type").str, "run_meta");
  EXPECT_EQ(lines[0].at("params").at("epochs").str, "2");
  EXPECT_EQ(lines[1].at("type").str, "epoch");
  EXPECT_EQ(lines[2].at("loss").number, 0.75);
  EXPECT_EQ(lines[3].at("type").str, "metrics");
  EXPECT_TRUE(lines[3].at("metrics").at("counters").is_object());
}

TEST(LogLevelParse, AcceptsSpellingsAndRejectsGarbage) {
  using util::LogLevel;
  using util::parse_log_level;
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("DEBUG"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level(" Info "), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("Warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("ERR"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("0"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("3"), LogLevel::kError);
  EXPECT_EQ(parse_log_level(""), std::nullopt);
  EXPECT_EQ(parse_log_level("verbose"), std::nullopt);
  EXPECT_EQ(parse_log_level("4"), std::nullopt);
}

TEST(Memory, TrackerAccountsAllocsFreesAndPeak) {
  MemTracker t;
  t.on_alloc(100);
  t.on_alloc(50);
  EXPECT_EQ(t.current_bytes(), 150U);
  EXPECT_EQ(t.peak_bytes(), 150U);
  t.on_free(100);
  EXPECT_EQ(t.current_bytes(), 50U);
  EXPECT_EQ(t.peak_bytes(), 150U);  // high-water sticks
  t.on_alloc(25);
  EXPECT_EQ(t.current_bytes(), 75U);
  EXPECT_EQ(t.peak_bytes(), 150U);
  EXPECT_EQ(t.total_bytes(), 175U);
  EXPECT_EQ(t.allocs(), 3U);
  EXPECT_EQ(t.frees(), 1U);
  t.reset();
  EXPECT_EQ(t.current_bytes(), 0U);
  EXPECT_EQ(t.peak_bytes(), 0U);
}

TEST(Memory, ProcSelfStatsReadsThisProcess) {
  const ProcSelfStats proc = read_proc_self();
#if defined(__linux__)
  ASSERT_TRUE(proc.valid);
  EXPECT_GT(proc.rss_bytes, 0.0);
  EXPECT_GE(proc.vm_bytes, proc.rss_bytes);
  // num_threads comes from /proc/self/stat field 20; a skip-count bug
  // there reads `nice` (0) instead — this process always has >= 1.
  EXPECT_GE(proc.threads, 1.0);
  EXPECT_GT(proc.minor_faults, 0.0);
#else
  EXPECT_FALSE(proc.valid);
#endif
}

}  // namespace
}  // namespace bpar::obs
