// Tests for obs::TelemetryServer (src/obs/telemetry_server.h): the
// four HTTP endpoints against a private registry, the byte-identity
// contract between GET /metrics and a same-instant
// render_prometheus(registry.snapshot()), health flips via custom
// checks and the kav_store_maintenance_ok gauge, keep-alive reuse, and
// Engine integration (EngineOptions::telemetry_port / serve_telemetry)
// including concurrent scraping while verify/monitor runs are live --
// the load shape the ASan/TSan jobs must stay clean under.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gen/generators.h"
#include "kav.h"
#include "util/rng.h"

#if defined(__linux__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace kav {
namespace {

#if defined(__linux__)

KeyedTrace small_trace(int keys, int ops_per_key, std::uint64_t seed) {
  Rng rng(seed);
  KeyedTrace trace;
  for (int k = 0; k < keys; ++k) {
    gen::RandomMixConfig config;
    config.operations = ops_per_key;
    const History h = gen::generate_random_mix(config, rng);
    const std::string key = "key" + std::to_string(k);
    for (const Operation& op : h.operations()) trace.add(key, op);
  }
  return trace;
}

// Raw round trip for the request shapes http_get cannot produce
// (non-GET methods, pipelined keep-alive): send `wire`, read to EOF.
std::string raw_round_trip(std::uint16_t port, const std::string& wire) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return {};
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    close(fd);
    return {};
  }
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = write(fd, wire.data() + sent, wire.size() - sent);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string reply;
  char buf[8192];
  for (;;) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    reply.append(buf, static_cast<std::size_t>(n));
  }
  close(fd);
  return reply;
}

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle);
       pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// --- Endpoint basics over a private registry -------------------------------

TEST(TelemetryServer, BindsEphemeralPortAndServesMetrics) {
  obs::MetricsRegistry registry;
  registry.counter("kav_sample_events_total", "Events.").add(42);
  obs::TelemetryServer server(registry);
  EXPECT_EQ(server.address(), "127.0.0.1");
  ASSERT_NE(server.port(), 0);

  const net::HttpResponse response =
      net::http_get(server.address(), server.port(), "/metrics");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("kav_sample_events_total 42"),
            std::string::npos);
  EXPECT_GE(server.requests_served(), 1u);
}

TEST(TelemetryServer, MetricsByteIdenticalToSameInstantRender) {
  obs::MetricsRegistry registry;
  registry.counter("kav_sample_events_total", "Events.").add(7);
  registry.gauge("kav_sample_backlog", "Backlog.").set(3);
  registry.histogram("kav_sample_step_seconds", "Steps.").observe(0.004);
  obs::TelemetryServer server(registry);

  // The registry is quiescent between the scrape and the local render,
  // and the rate tick only runs inside the scrape -- so the scraped
  // body must equal a render taken right after, byte for byte. Twice,
  // with a mutation in between, to rule out one-shot luck.
  for (int round = 0; round < 2; ++round) {
    const net::HttpResponse scraped =
        net::http_get(server.address(), server.port(), "/metrics");
    ASSERT_EQ(scraped.status, 200);
    EXPECT_EQ(scraped.body, obs::render_prometheus(registry.snapshot()));
    registry.counter("kav_sample_events_total", "Events.").add(5);
  }
}

TEST(TelemetryServer, RateGaugesAppearInRegistryWithWindowLabels) {
  obs::MetricsRegistry registry;
  obs::Counter& ingested =
      registry.counter("kav_monitor_ops_ingested_total", "Ops.");
  obs::TelemetryServer server(registry);

  ingested.add(1000);
  const net::HttpResponse response =
      net::http_get(server.address(), server.port(), "/metrics");
  ASSERT_EQ(response.status, 200);
  // The derived gauges live in the same registry under the _rate
  // grammar: base name minus _total, one series per window.
  for (const char* window : {"1s", "10s", "60s"}) {
    const std::string series = "kav_monitor_ops_ingested_rate{window=\"" +
                               std::string(window) + "\"}";
    EXPECT_NE(response.body.find(series), std::string::npos)
        << "missing " << series;
  }
}

TEST(TelemetryServer, StatusReportsSourceAndServerFields) {
  obs::MetricsRegistry registry;
  obs::TelemetryServer server(registry);
  server.set_status_source([] {
    obs::StatusSnapshot status;
    status.uptime_seconds = 12.5;
    status.runs_started = 3;
    status.runs_completed = 2;
    status.runs_in_flight = 1;
    obs::RunSummaryInfo run;
    run.mode = "monitor";
    run.outcome = "completed";
    run.seconds = 0.25;
    run.keys = 4;
    run.findings = 1;
    status.recent_runs.push_back(run);
    status.violation_top.emplace_back("hot\"key", 9);
    return status;
  });

  const net::HttpResponse response =
      net::http_get(server.address(), server.port(), "/status");
  ASSERT_EQ(response.status, 200);
  const std::string& body = response.body;
  EXPECT_NE(body.find("\"runs\""), std::string::npos);
  EXPECT_NE(body.find("\"started\": 3"), std::string::npos);
  EXPECT_NE(body.find("\"in_flight\": 1"), std::string::npos);
  EXPECT_NE(body.find("\"mode\": \"monitor\""), std::string::npos);
  // JSON escaping comes from the shared obs::detail helpers.
  EXPECT_NE(body.find("hot\\\"key"), std::string::npos);
  EXPECT_NE(body.find("\"server\""), std::string::npos);
  EXPECT_NE(body.find("\"uptime_seconds\""), std::string::npos);
}

TEST(TelemetryServer, HealthzFlipsWithChecksAndMaintenanceGauge) {
  obs::MetricsRegistry registry;
  obs::Gauge& maintenance_ok =
      registry.gauge("kav_store_maintenance_ok", "Store health.");
  maintenance_ok.set(1);
  obs::TelemetryServer server(registry);

  net::HttpResponse response =
      net::http_get(server.address(), server.port(), "/healthz");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "ok\n");

  // A store maintenance failure (gauge -> 0) turns /healthz 503...
  maintenance_ok.set(0);
  response = net::http_get(server.address(), server.port(), "/healthz");
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("kav_store_maintenance_ok"),
            std::string::npos);

  // ...and a successful pass recovers it.
  maintenance_ok.set(1);
  response = net::http_get(server.address(), server.port(), "/healthz");
  EXPECT_EQ(response.status, 200);

  // Custom checks contribute their names to the failure body.
  std::atomic<bool> disk_ok{false};
  server.add_health_check("disk", [&disk_ok] { return disk_ok.load(); });
  response = net::http_get(server.address(), server.port(), "/healthz");
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("disk"), std::string::npos);
  disk_ok = true;
  response = net::http_get(server.address(), server.port(), "/healthz");
  EXPECT_EQ(response.status, 200);
}

TEST(TelemetryServer, SpansServeChromeTraceJson) {
  obs::MetricsRegistry registry;
  obs::TelemetryServer server(registry);
  const net::HttpResponse response =
      net::http_get(server.address(), server.port(), "/spans");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"traceEvents\""), std::string::npos);
}

TEST(TelemetryServer, UnknownPathsAnd405) {
  obs::MetricsRegistry registry;
  obs::TelemetryServer server(registry);

  EXPECT_EQ(net::http_get(server.address(), server.port(), "/nope").status,
            404);

  const std::string reply = raw_round_trip(
      server.port(), "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(reply.find("HTTP/1.1 405 "), 0u);

  const std::string bad = raw_round_trip(server.port(), "not http\r\n\r\n");
  EXPECT_EQ(bad.find("HTTP/1.1 400 "), 0u);
}

TEST(TelemetryServer, KeepAliveServesPipelinedRequests) {
  obs::MetricsRegistry registry;
  obs::TelemetryServer server(registry);
  // Two requests on one connection: the first keeps the connection
  // open, the second asks to close so read-to-EOF terminates.
  const std::string reply = raw_round_trip(
      server.port(),
      "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(count_occurrences(reply, "HTTP/1.1 200 OK"), 2u);
  EXPECT_EQ(count_occurrences(reply, "ok\n"), 2u);
  EXPECT_GE(server.requests_served(), 2u);
}

TEST(TelemetryServer, OversizedRequestHeadAnswers431) {
  obs::MetricsRegistry registry;
  obs::TelemetryOptions options;
  options.max_request_bytes = 256;
  obs::TelemetryServer server(registry, options);
  const std::string reply = raw_round_trip(
      server.port(), "GET /metrics HTTP/1.1\r\nX-Pad: " +
                         std::string(1024, 'a') + "\r\n\r\n");
  EXPECT_EQ(reply.find("HTTP/1.1 431 "), 0u);
}

TEST(TelemetryServer, StopIsIdempotentAndRefusesAfter) {
  obs::MetricsRegistry registry;
  obs::TelemetryServer server(registry);
  const std::uint16_t port = server.port();
  server.stop();
  server.stop();  // idempotent
  EXPECT_THROW(net::http_get("127.0.0.1", port, "/healthz", 500),
               std::runtime_error);
}

// --- Engine integration ----------------------------------------------------

TEST(EngineTelemetry, OptionsPortStartsServerAndStatusTracksRuns) {
  obs::MetricsRegistry registry;
  EngineOptions options;
  options.threads = 2;
  options.metrics = &registry;
  options.telemetry_port = 0;  // ephemeral
  Engine engine(options);
  ASSERT_NE(engine.telemetry(), nullptr);
  ASSERT_NE(engine.telemetry()->port(), 0);
  // serve_telemetry() is idempotent: same server back.
  EXPECT_EQ(&engine.serve_telemetry(), engine.telemetry());

  const KeyedTrace trace = small_trace(3, 12, 55);
  engine.verify(trace);
  engine.monitor(trace);

  const std::string address = engine.telemetry()->address();
  const std::uint16_t port = engine.telemetry()->port();

  const net::HttpResponse metrics = net::http_get(address, port, "/metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.body, obs::render_prometheus(engine.snapshot()));
  EXPECT_NE(
      metrics.body.find("kav_engine_runs_completed_total{mode=\"batch\"} 1"),
      std::string::npos);
  EXPECT_NE(
      metrics.body.find("kav_engine_runs_completed_total{mode=\"monitor\"} 1"),
      std::string::npos);

  const net::HttpResponse status = net::http_get(address, port, "/status");
  ASSERT_EQ(status.status, 200);
  EXPECT_NE(status.body.find("\"completed\": 2"), std::string::npos);
  EXPECT_NE(status.body.find("\"mode\": \"batch\""), std::string::npos);
  EXPECT_NE(status.body.find("\"mode\": \"monitor\""), std::string::npos);

  EXPECT_EQ(net::http_get(address, port, "/healthz").status, 200);
}

TEST(EngineTelemetry, StatusLedgerCountsWithoutServer) {
  // Engine::status() works with telemetry off: the ledger is always on.
  Engine engine;
  EXPECT_EQ(engine.telemetry(), nullptr);
  const KeyedTrace trace = small_trace(2, 10, 9);
  engine.verify(trace);
  const obs::StatusSnapshot status = engine.status();
  EXPECT_EQ(status.runs_started, 1u);
  EXPECT_EQ(status.runs_completed, 1u);
  EXPECT_EQ(status.runs_in_flight, 0u);
  ASSERT_EQ(status.recent_runs.size(), 1u);
  EXPECT_EQ(status.recent_runs[0].mode, "batch");
  EXPECT_EQ(status.recent_runs[0].keys, 2u);
}

TEST(EngineTelemetry, ConcurrentScrapesDuringLiveRunsStayClean) {
  // The ASan/TSan acceptance shape: scrapers hammer every endpoint
  // while verify/monitor runs mutate the registry and the run ledger.
  obs::MetricsRegistry registry;
  EngineOptions options;
  options.threads = 2;
  options.metrics = &registry;
  Engine engine(options);
  obs::TelemetryServer& server = engine.serve_telemetry();
  const std::string address = server.address();
  const std::uint16_t port = server.port();

  std::atomic<bool> done{false};
  std::atomic<int> scrape_errors{0};
  std::atomic<int> scraping{0};  // scrapers past their first request
  std::vector<std::thread> scrapers;
  const char* const targets[] = {"/metrics", "/status", "/healthz", "/spans"};
  for (int t = 0; t < 4; ++t) {
    scrapers.emplace_back([&, t] {
      bool first = true;
      while (!done.load(std::memory_order_acquire)) {
        try {
          const net::HttpResponse response =
              net::http_get(address, port, targets[t]);
          if (response.status != 200) ++scrape_errors;
        } catch (const std::exception&) {
          ++scrape_errors;
        }
        if (std::exchange(first, false)) ++scraping;
      }
    });
  }
  // The runs take milliseconds: under load they could all end before
  // any scraper is scheduled, and then nothing would overlap them.
  const auto wait_until =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (scraping.load() < 4 && std::chrono::steady_clock::now() < wait_until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const KeyedTrace trace = small_trace(4, 24, 77);
  for (int round = 0; round < 6; ++round) {
    engine.verify(trace);
    engine.monitor(trace);
  }
  done = true;
  for (std::thread& t : scrapers) t.join();
  EXPECT_EQ(scrape_errors.load(), 0);
  EXPECT_GT(server.requests_served(), 0u);

  const obs::StatusSnapshot status = engine.status();
  EXPECT_EQ(status.runs_completed, 12u);
  EXPECT_EQ(status.runs_in_flight, 0u);
}

#endif  // defined(__linux__)

}  // namespace
}  // namespace kav
