// Tests for the live telemetry plane: the embedded obs/http server
// (routing, status codes, HEAD, query stripping), the ExpositionHub /
// GuardedMetricsSink exposition path, the exp::ProgressTracker progress
// and ETA engine (snapshot counters, byzrename.progress/1 JSON through
// the production parser, Prometheus families), cooperative campaign
// cancellation, and — the reason this binary carries the "exp" label so
// the TSan CI job runs it — a scrape-during-write hammer that curls
// /metrics and /progress from client threads while an 8-thread campaign
// produces the data, then asserts the deterministic aggregates are
// byte-identical to a serial run of the same spec.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exp/campaign.h"
#include "exp/campaign_io.h"
#include "exp/progress.h"
#include "exp/spec_parse.h"
#include "obs/http/buildinfo.h"
#include "obs/http/exposition.h"
#include "obs/http/http_server.h"
#include "obs/json_parse.h"
#include "obs/schema.h"
#include "obs/telemetry.h"
#include "sim/network.h"
#include "sim/rng.h"

namespace {

using namespace byzrename;
using exp::CampaignOptions;
using exp::CampaignResult;
using exp::CampaignSpec;
using exp::ProgressTracker;
using obs::ExpositionHub;
using obs::HttpRequest;
using obs::HttpResponse;
using obs::HttpServer;

/// Blocking one-shot HTTP client over a raw socket — the test's view of
/// the server is exactly what curl would see, headers included.
std::string http_request(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect() failed");
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      throw std::runtime_error("send() failed");
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;  // Connection: close — EOF ends the response
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string http_get(std::uint16_t port, const std::string& path) {
  return http_request(port, "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

std::string http_post(std::uint16_t port, const std::string& path, const std::string& body,
                      const std::string& content_type = "application/json") {
  return http_request(port, "POST " + path + " HTTP/1.1\r\nHost: localhost\r\nContent-Type: " +
                                content_type +
                                "\r\nContent-Length: " + std::to_string(body.size()) +
                                "\r\n\r\n" + body);
}

/// Sends a request and then half-closes the write side, so a server
/// waiting for more body bytes sees EOF instead of a 2 s read timeout —
/// the hostile truncated-body case.
std::string http_request_half_close(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect() failed");
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      throw std::runtime_error("send() failed");
    }
    sent += static_cast<std::size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

/// Body of a response (everything after the blank line).
std::string body_of(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string() : response.substr(split + 4);
}

// ---------------------------------------------------------------------------
// HttpServer units

TEST(HttpServer, ServesRegisteredPathOnEphemeralPort) {
  HttpServer server;
  server.handle("/hello", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "hi\n";
    return response;
  });
  server.start(0);
  ASSERT_TRUE(server.running());
  ASSERT_NE(server.port(), 0);

  const std::string response = http_get(server.port(), "/hello");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("Connection: close"), std::string::npos) << response;
  EXPECT_NE(response.find("Content-Length: 3"), std::string::npos) << response;
  EXPECT_EQ(body_of(response), "hi\n");
  EXPECT_GE(server.requests_served(), 1u);
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(HttpServer, UnknownPathIs404) {
  HttpServer server;
  server.handle("/known", [](const HttpRequest&) { return HttpResponse{}; });
  server.start(0);
  EXPECT_NE(http_get(server.port(), "/nope").find("HTTP/1.1 404"), std::string::npos);
}

TEST(HttpServer, NonGetMethodIs405AndBadRequestLineIs400) {
  HttpServer server;
  server.handle("/x", [](const HttpRequest&) { return HttpResponse{}; });
  server.start(0);
  EXPECT_NE(http_request(server.port(), "POST /x HTTP/1.1\r\nHost: h\r\n\r\n")
                .find("HTTP/1.1 405"),
            std::string::npos);
  EXPECT_NE(http_request(server.port(), "garbage\r\n\r\n").find("HTTP/1.1 400"),
            std::string::npos);
}

TEST(HttpServer, HeadOmitsBodyButKeepsContentLength) {
  HttpServer server;
  server.handle("/h", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "12345";
    return response;
  });
  server.start(0);
  const std::string response =
      http_request(server.port(), "HEAD /h HTTP/1.1\r\nHost: h\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("Content-Length: 5"), std::string::npos) << response;
  EXPECT_EQ(body_of(response), "");
}

TEST(HttpServer, QueryStringIsStrippedAndPassedSeparately) {
  HttpServer server;
  server.handle("/q", [](const HttpRequest& request) {
    HttpResponse response;
    response.body = request.query;
    return response;
  });
  server.start(0);
  EXPECT_EQ(body_of(http_get(server.port(), "/q?a=1&b=2")), "a=1&b=2");
}

TEST(HttpServer, HandlerExceptionBecomes500) {
  HttpServer server;
  server.handle("/boom", [](const HttpRequest&) -> HttpResponse {
    throw std::runtime_error("boom");
  });
  server.start(0);
  EXPECT_NE(http_get(server.port(), "/boom").find("HTTP/1.1 500"), std::string::npos);
}

TEST(HttpServer, RegisteringAfterStartThrows) {
  HttpServer server;
  server.start(0);
  EXPECT_THROW(server.handle("/late", [](const HttpRequest&) { return HttpResponse{}; }),
               std::logic_error);
}

TEST(HttpServer, StopIsIdempotentAndRestartWorks) {
  HttpServer server;
  server.handle("/p", [](const HttpRequest&) { return HttpResponse{}; });
  server.start(0);
  server.stop();
  server.stop();
  server.start(0);
  EXPECT_NE(http_get(server.port(), "/p").find("200 OK"), std::string::npos);
}

// ---------------------------------------------------------------------------
// POST routes: the byzrenamed control plane rides these, so the
// validation ladder (405/411/413/415/400) gets hostile-request coverage
// at the raw-socket level.

TEST(HttpServerPost, PostRouteReceivesBodyAndEchoesIt) {
  HttpServer server;
  server.handle_post("/echo", [](const HttpRequest& request) {
    HttpResponse response;
    response.status = 202;
    response.body = request.method + "|" + request.content_type + "|" + request.body;
    return response;
  });
  server.start(0);
  const std::string response = http_post(server.port(), "/echo", "{\"a\":1}");
  EXPECT_NE(response.find("HTTP/1.1 202"), std::string::npos) << response;
  EXPECT_EQ(body_of(response), "POST|application/json|{\"a\":1}");
}

TEST(HttpServerPost, GetAndPostCoexistOnOnePath) {
  HttpServer server;
  server.handle("/both", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "via-get";
    return response;
  });
  server.handle_post("/both", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "via-post";
    return response;
  });
  server.start(0);
  EXPECT_EQ(body_of(http_get(server.port(), "/both")), "via-get");
  EXPECT_EQ(body_of(http_post(server.port(), "/both", "{}")), "via-post");
}

TEST(HttpServerPost, GetOnPostOnlyRouteIs405) {
  HttpServer server;
  server.handle_post("/postonly", [](const HttpRequest&) { return HttpResponse{}; });
  server.start(0);
  EXPECT_NE(http_get(server.port(), "/postonly").find("HTTP/1.1 405"), std::string::npos);
}

TEST(HttpServerPost, MissingContentLengthIs411) {
  HttpServer server;
  server.handle_post("/p", [](const HttpRequest&) { return HttpResponse{}; });
  server.start(0);
  const std::string response = http_request(
      server.port(), "POST /p HTTP/1.1\r\nHost: h\r\nContent-Type: application/json\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 411"), std::string::npos) << response;
}

TEST(HttpServerPost, MalformedContentLengthIs400) {
  HttpServer server;
  server.handle_post("/p", [](const HttpRequest&) { return HttpResponse{}; });
  server.start(0);
  const std::string response = http_request(
      server.port(),
      "POST /p HTTP/1.1\r\nHost: h\r\nContent-Type: application/json\r\n"
      "Content-Length: banana\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << response;
}

TEST(HttpServerPost, DeclaredBodyOverRouteCapIs413WithoutReadingIt) {
  HttpServer server;
  std::atomic<bool> handler_ran{false};
  server.handle_post(
      "/small",
      [&handler_ran](const HttpRequest&) {
        handler_ran.store(true);
        return HttpResponse{};
      },
      HttpServer::PostOptions{/*max_body_bytes=*/64, "application/json"});
  server.start(0);
  // Declare a huge body but never send it: the server must answer from
  // the headers alone (no buffering, no timeout waiting for the body).
  const std::string response = http_request_half_close(
      server.port(),
      "POST /small HTTP/1.1\r\nHost: h\r\nContent-Type: application/json\r\n"
      "Content-Length: 1000000\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 413"), std::string::npos) << response;
  EXPECT_FALSE(handler_ran.load());
}

TEST(HttpServerPost, WrongContentTypeIs415ButParametersAreIgnored) {
  HttpServer server;
  server.handle_post("/typed", [](const HttpRequest&) { return HttpResponse{}; });
  server.start(0);
  EXPECT_NE(http_post(server.port(), "/typed", "{}", "text/plain").find("HTTP/1.1 415"),
            std::string::npos);
  // "; charset=..." parameters must not defeat the match.
  EXPECT_NE(
      http_post(server.port(), "/typed", "{}", "application/json; charset=utf-8")
          .find("HTTP/1.1 200"),
      std::string::npos);
}

TEST(HttpServerPost, TruncatedBodyIs400) {
  HttpServer server;
  server.handle_post("/t", [](const HttpRequest&) { return HttpResponse{}; });
  server.start(0);
  const std::string response = http_request_half_close(
      server.port(),
      "POST /t HTTP/1.1\r\nHost: h\r\nContent-Type: application/json\r\n"
      "Content-Length: 10\r\n\r\n{\"a\"");
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << response;
}

TEST(HttpServerPost, ExtraHeadersAreEmittedBeforeConnectionClose) {
  HttpServer server;
  server.handle_post("/retry", [](const HttpRequest&) {
    HttpResponse response;
    response.status = 429;
    response.extra_headers.emplace_back("Retry-After", "7");
    return response;
  });
  server.start(0);
  const std::string response = http_post(server.port(), "/retry", "{}");
  EXPECT_NE(response.find("HTTP/1.1 429"), std::string::npos) << response;
  EXPECT_NE(response.find("Retry-After: 7\r\n"), std::string::npos) << response;
  EXPECT_NE(response.find("Connection: close"), std::string::npos) << response;
}

TEST(HttpServerPost, RegisteringPostAfterStartThrows) {
  HttpServer server;
  server.start(0);
  EXPECT_THROW(
      server.handle_post("/late", [](const HttpRequest&) { return HttpResponse{}; }),
      std::logic_error);
}

// ---------------------------------------------------------------------------
// obs::parse_json hardening: these properties are what make it safe to
// point the parser at hostile POST bodies (stack-bounded recursion,
// no silent last-key-wins aliasing).

std::string nested_json(int depth, char open, char close) {
  std::string text;
  for (int i = 0; i < depth; ++i) {
    text += open;
    if (open == '{' && i + 1 < depth) text += "\"k\":";
  }
  if (open == '{') text += "\"k\":1";
  else text += "1";
  for (int i = 0; i < depth; ++i) text += close;
  return text;
}

TEST(JsonParseHardening, DeepButLegalNestingParses) {
  // Well under the 256 cap: must parse, and the innermost value must be
  // reachable.
  const obs::JsonValue arrays = obs::parse_json(nested_json(200, '[', ']'));
  const obs::JsonValue* cursor = &arrays;
  for (int i = 0; i < 200; ++i) cursor = &cursor->as_array().at(0);
  EXPECT_EQ(cursor->as_int(), 1);
  EXPECT_NO_THROW(obs::parse_json(nested_json(200, '{', '}')));
}

TEST(JsonParseHardening, NestingPastTheCapThrowsInsteadOfOverflowing) {
  EXPECT_THROW(obs::parse_json(nested_json(50000, '[', ']')), std::invalid_argument);
  EXPECT_THROW(obs::parse_json(nested_json(50000, '{', '}')), std::invalid_argument);
  EXPECT_THROW(obs::parse_json(nested_json(257, '[', ']')), std::invalid_argument);
}

TEST(JsonParseHardening, DuplicateObjectKeysAreRejected) {
  EXPECT_THROW(obs::parse_json("{\"a\":1,\"a\":2}"), std::invalid_argument);
  EXPECT_THROW(obs::parse_json("{\"x\":{\"a\":1,\"a\":1}}"), std::invalid_argument);
  // Same key at DIFFERENT depths is legal.
  EXPECT_NO_THROW(obs::parse_json("{\"a\":{\"a\":1}}"));
}

// ---------------------------------------------------------------------------
// /buildinfo: one shared identity endpoint for every serving tool.

TEST(BuildInfo, EndpointServesSchemaVersionAndGitSha) {
  HttpServer server;
  obs::mount_buildinfo(server);
  server.start(0);
  const std::string response = http_get(server.port(), "/buildinfo");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("application/json"), std::string::npos) << response;
  const obs::JsonValue doc = obs::parse_json(body_of(response));
  EXPECT_EQ(doc.at("schema").as_string(), obs::kBuildinfoSchema);
  EXPECT_FALSE(doc.at("version").as_string().empty());
  EXPECT_FALSE(doc.at("git_sha").as_string().empty());
  EXPECT_FALSE(doc.at("compiler").as_string().empty());
  EXPECT_FALSE(doc.at("sanitizers").as_string().empty());
}

// ---------------------------------------------------------------------------
// Exposition plumbing

TEST(ExpositionHub, WritersRenderInRegistrationOrder) {
  ExpositionHub hub;
  hub.add_writer([](std::ostream& os) { os << "alpha\n"; });
  hub.add_writer([](std::ostream& os) { os << "beta\n"; });
  std::ostringstream os;
  hub.write(os);
  EXPECT_EQ(os.str(), "alpha\nbeta\n");
}

TEST(Exposition, MountedEndpointsServeHubHealthzAndJson) {
  ExpositionHub hub;
  hub.add_writer([](std::ostream& os) { os << "byzrename_x_total 1\n"; });
  HttpServer server;
  obs::mount_prometheus(server, hub);
  obs::mount_healthz(server);
  obs::mount_json(server, "/progress", [](std::ostream& os) { os << "{\"a\":1}\n"; });
  server.start(0);

  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos) << metrics;
  EXPECT_EQ(body_of(metrics), "byzrename_x_total 1\n");
  EXPECT_EQ(body_of(http_get(server.port(), "/healthz")), "ok\n");
  const std::string progress = http_get(server.port(), "/progress");
  EXPECT_NE(progress.find("application/json"), std::string::npos) << progress;
  EXPECT_EQ(body_of(progress), "{\"a\":1}\n");
}

TEST(Exposition, ProcessMetricsReportResidentSetOnProcfs) {
  std::ostringstream os;
  obs::write_process_metrics(os);
  // On Linux (the CI platform) procfs is present, so the gauge must be
  // there with a positive value; the writer is allowed to emit nothing
  // only where /proc/self/status does not exist.
  EXPECT_NE(os.str().find("process_resident_memory_bytes"), std::string::npos) << os.str();
  // Same procfs condition for the start-time gauge (absent, not zero,
  // where /proc/self/stat or btime cannot be read).
  EXPECT_NE(os.str().find("process_start_time_seconds"), std::string::npos) << os.str();
  // The build-info gauge has no procfs dependency: always present,
  // always value 1, with the standard three labels.
  EXPECT_NE(os.str().find("byzrename_build_info{version=\""), std::string::npos) << os.str();
  EXPECT_NE(os.str().find("git_sha=\""), std::string::npos) << os.str();
  EXPECT_NE(os.str().find("build_type=\""), std::string::npos) << os.str();
}

// ---------------------------------------------------------------------------
// ProgressTracker

std::vector<exp::CampaignCell> two_cells() {
  std::vector<exp::CampaignCell> cells(2);
  cells[0].index = 0;
  cells[0].params = {.n = 7, .t = 2};
  cells[0].adversary = "silent";
  cells[1].index = 1;
  cells[1].params = {.n = 10, .t = 3};
  cells[1].adversary = "idflood";
  return cells;
}

TEST(ProgressTracker, CountsRollUpPerCellAndGlobally) {
  ProgressTracker tracker;
  tracker.begin("unit", two_cells(), /*repetitions=*/3, /*workers=*/2);

  tracker.task_started();
  tracker.task_finished(0, /*ok=*/true, /*quarantined=*/false);
  tracker.task_started();
  tracker.task_finished(1, /*ok=*/false, /*quarantined=*/false);
  tracker.task_started();
  tracker.task_finished(1, /*ok=*/false, /*quarantined=*/true);

  const ProgressTracker::Snapshot snapshot = tracker.snapshot();
  EXPECT_TRUE(snapshot.started);
  EXPECT_FALSE(snapshot.done);
  EXPECT_EQ(snapshot.campaign, "unit");
  EXPECT_EQ(snapshot.total_runs, 6u);
  EXPECT_EQ(snapshot.completed, 3u);
  EXPECT_EQ(snapshot.ok, 1u);
  EXPECT_EQ(snapshot.violations, 1u);  // quarantined runs are not violations
  EXPECT_EQ(snapshot.quarantined, 1u);
  EXPECT_EQ(snapshot.workers, 2);
  EXPECT_EQ(snapshot.workers_busy, 0);
  ASSERT_EQ(snapshot.cells.size(), 2u);
  EXPECT_EQ(snapshot.cells[0].key, "op-renaming/n7/t2/silent");
  EXPECT_EQ(snapshot.cells[0].completed, 1u);
  EXPECT_EQ(snapshot.cells[0].ok, 1u);
  EXPECT_EQ(snapshot.cells[1].completed, 2u);
  EXPECT_EQ(snapshot.cells[1].violations, 1u);
  EXPECT_EQ(snapshot.cells[1].quarantined, 1u);

  tracker.finish(/*interrupted=*/false);
  EXPECT_TRUE(tracker.snapshot().done);
}

TEST(ProgressTracker, ProgressJsonIsValidAndCarriesTheSchema) {
  ProgressTracker tracker;
  tracker.begin("json-campaign", two_cells(), 2, 4);
  tracker.task_started();
  tracker.task_finished(0, true, false);

  std::ostringstream os;
  tracker.write_progress_json(os);
  const obs::JsonValue doc = obs::parse_json(os.str());
  EXPECT_EQ(doc.at("schema").as_string(), obs::kProgressSchema);
  EXPECT_EQ(doc.at("campaign").as_string(), "json-campaign");
  EXPECT_EQ(doc.at("state").as_string(), "running");
  EXPECT_EQ(doc.at("total_runs").as_uint(), 4u);
  EXPECT_EQ(doc.at("completed").as_uint(), 1u);
  EXPECT_EQ(doc.at("workers").at("total").as_int(), 4);
  ASSERT_EQ(doc.at("cells").as_array().size(), 2u);
  EXPECT_EQ(doc.at("cells").as_array()[0].at("cell").as_string(), "op-renaming/n7/t2/silent");
  EXPECT_GE(doc.at("elapsed_seconds").as_double(), 0.0);
  // rate_source names which estimator produced eta_seconds; with one
  // completion the EWMA may or may not be warm, but the field is always
  // one of the three documented values.
  const std::string rate_source = doc.at("rate_source").as_string();
  EXPECT_TRUE(rate_source == "ewma" || rate_source == "mean" || rate_source == "none")
      << rate_source;

  tracker.finish(true);
  std::ostringstream done;
  tracker.write_progress_json(done);
  EXPECT_EQ(obs::parse_json(done.str()).at("state").as_string(), "interrupted");
}

TEST(ProgressTracker, IdleTrackerReportsIdleStateAndEmptyPrometheus) {
  ProgressTracker tracker;
  std::ostringstream json;
  tracker.write_progress_json(json);
  EXPECT_EQ(obs::parse_json(json.str()).at("state").as_string(), "idle");
  std::ostringstream prom;
  tracker.write_prometheus(prom);
  EXPECT_TRUE(prom.str().empty()) << prom.str();
}

TEST(ProgressTracker, EtaConvergesAsCompletionsArrive) {
  ProgressTracker tracker;
  std::vector<exp::CampaignCell> cells(1);
  cells[0].params = {.n = 7, .t = 2};
  cells[0].adversary = "silent";
  tracker.begin("eta", cells, /*repetitions=*/200, /*workers=*/1);

  {
    const ProgressTracker::Snapshot idle = tracker.snapshot();
    EXPECT_LT(idle.eta_seconds, 0.0);  // nothing finished yet
    EXPECT_STREQ(idle.rate_source, "none");  // -1 sentinel, no estimator
  }

  // 50 completions at a (roughly) steady 1 ms cadence: the EWMA rate
  // must land near 1000 runs/s and the ETA near 150 remaining * 1 ms.
  for (int i = 0; i < 50; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    tracker.task_finished(0, true, false);
  }
  const ProgressTracker::Snapshot snapshot = tracker.snapshot();
  EXPECT_EQ(snapshot.completed, 50u);
  EXPECT_GT(snapshot.runs_per_second, 0.0);
  ASSERT_GT(snapshot.eta_seconds, 0.0);
  // Generous envelope — CI timers jitter — but the estimate must be the
  // right order of magnitude, not a default or a garbage value.
  EXPECT_LT(snapshot.eta_seconds, 30.0);
  // A warm EWMA after 50 steady completions must be the source the ETA
  // came from — the field that makes a dashboard's ETA auditable.
  EXPECT_STREQ(snapshot.rate_source, "ewma");

  tracker.finish(false);
  EXPECT_EQ(tracker.snapshot().eta_seconds, 0.0);  // done: nothing remains
}

TEST(ProgressTracker, PrometheusFamiliesCarryTheCounters) {
  ProgressTracker tracker;
  tracker.begin("prom", two_cells(), 1, 3);
  tracker.task_finished(0, true, false);
  std::ostringstream os;
  tracker.write_prometheus(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("# TYPE byzrename_campaign_runs gauge"), std::string::npos) << out;
  EXPECT_NE(out.find("byzrename_campaign_runs 2\n"), std::string::npos) << out;
  EXPECT_NE(out.find("byzrename_campaign_runs_completed_total 1\n"), std::string::npos) << out;
  EXPECT_NE(out.find("byzrename_campaign_runs_ok_total 1\n"), std::string::npos) << out;
  EXPECT_NE(out.find("byzrename_campaign_runs_pending 1\n"), std::string::npos) << out;
  EXPECT_NE(out.find("byzrename_campaign_workers 3\n"), std::string::npos) << out;
}

// ---------------------------------------------------------------------------
// Campaign integration: cancellation and the tracker as a run_campaign
// observer.

TEST(CampaignCancel, PreArmedCancelFlagYieldsInterruptedEmptyResult) {
  const CampaignSpec spec =
      exp::parse_campaign_spec("algo=op;n=7;t=2;adversary=silent;reps=8;seed=5");
  std::atomic<bool> cancel{true};
  CampaignOptions options;
  options.threads = 2;
  options.cancel = &cancel;
  const CampaignResult result = exp::run_campaign(spec, options);
  EXPECT_TRUE(result.interrupted);
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.executed, 0u);
  EXPECT_FALSE(result.all_ok());
}

TEST(CampaignCancel, UnsetCancelFlagChangesNothing) {
  const CampaignSpec spec =
      exp::parse_campaign_spec("algo=op;n=7;t=2;adversary=silent;reps=2;seed=5");
  std::atomic<bool> cancel{false};
  CampaignOptions with_flag;
  with_flag.threads = 1;
  with_flag.cancel = &cancel;
  const CampaignResult a = exp::run_campaign(spec, with_flag);
  const CampaignResult b = exp::run_campaign(spec, {});
  EXPECT_FALSE(a.interrupted);
  EXPECT_EQ(a.executed, b.executed);

  std::ostringstream cells_a;
  std::ostringstream cells_b;
  exp::write_campaign_cells(cells_a, spec, a);
  exp::write_campaign_cells(cells_b, spec, b);
  EXPECT_EQ(cells_a.str(), cells_b.str());
}

TEST(ProgressTracker, RunCampaignFeedsTheTrackerToCompletion) {
  const CampaignSpec spec =
      exp::parse_campaign_spec("algo=op;n=7,10;t=2;adversary=silent;reps=3;seed=5");
  ProgressTracker tracker;
  CampaignOptions options;
  options.threads = 2;
  options.progress = &tracker;
  const CampaignResult result = exp::run_campaign(spec, options);
  const ProgressTracker::Snapshot snapshot = tracker.snapshot();
  EXPECT_TRUE(snapshot.done);
  EXPECT_FALSE(snapshot.interrupted);
  EXPECT_EQ(snapshot.total_runs, result.runs.size());
  EXPECT_EQ(snapshot.completed, result.executed);
  EXPECT_EQ(snapshot.ok, result.executed - result.violations - result.quarantined);
  EXPECT_EQ(snapshot.workers_busy, 0);
  EXPECT_EQ(snapshot.eta_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// Scrape-during-write: the TSan-relevant test. Client threads hammer
// /metrics and /progress over real sockets while an 8-thread campaign
// runs underneath; every response must be well-formed, and the
// deterministic aggregate output must be byte-identical to the same
// spec run serially with no telemetry plane at all.

TEST(LiveScrape, HammeringEndpointsDuringCampaignIsSafeAndChangesNothing) {
  const char* kSpec = "algo=op;nt=10:3,13:4;adversary=split,idflood;reps=6;seed=11;name=live";
  const CampaignSpec spec = exp::parse_campaign_spec(kSpec);

  ProgressTracker tracker;
  ExpositionHub hub;
  hub.add_writer([&tracker](std::ostream& os) { tracker.write_prometheus(os); });
  hub.add_writer([](std::ostream& os) { obs::write_process_metrics(os); });
  HttpServer server;
  obs::mount_prometheus(server, hub);
  obs::mount_healthz(server);
  obs::mount_json(server, "/progress",
                  [&tracker](std::ostream& os) { tracker.write_progress_json(os); });
  server.start(0);
  const std::uint16_t port = server.port();

  std::atomic<bool> stop_scraping{false};
  std::atomic<std::uint64_t> scrapes{0};
  std::vector<std::thread> scrapers;
  for (int i = 0; i < 2; ++i) {
    scrapers.emplace_back([&, i] {
      while (!stop_scraping.load(std::memory_order_relaxed)) {
        const std::string path = i == 0 ? "/metrics" : "/progress";
        const std::string response = http_get(port, path);
        ASSERT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
        if (path == "/progress") {
          // Every scrape must parse, whatever instant it hit.
          const obs::JsonValue doc = obs::parse_json(body_of(response));
          ASSERT_EQ(doc.at("schema").as_string(), obs::kProgressSchema);
        }
        scrapes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  CampaignOptions live;
  live.threads = 8;
  live.progress = &tracker;
  const CampaignResult observed = exp::run_campaign(spec, live);
  stop_scraping.store(true, std::memory_order_relaxed);
  for (std::thread& scraper : scrapers) scraper.join();
  server.stop();
  EXPECT_GT(scrapes.load(), 0u);

  const CampaignResult reference = exp::run_campaign(spec, {});
  std::ostringstream observed_cells;
  std::ostringstream reference_cells;
  exp::write_campaign_cells(observed_cells, spec, observed);
  exp::write_campaign_cells(reference_cells, spec, reference);
  EXPECT_EQ(observed_cells.str(), reference_cells.str())
      << "live telemetry plane changed a deterministic aggregate";
}

/// GuardedMetricsSink: a single run's registry scraped concurrently with
/// the telemetry hooks feeding it. TSan checks the mutex actually covers
/// both sides; the assert checks a scrape never sees a torn document.
class IdleBehavior final : public sim::ProcessBehavior {
 public:
  void on_send(sim::Round, sim::Outbox&) override {}
  void on_receive(sim::Round, const sim::Inbox&) override {}
  [[nodiscard]] bool done() const override { return true; }
};

TEST(LiveScrape, GuardedMetricsSinkSurvivesConcurrentScrapes) {
  std::vector<std::unique_ptr<sim::ProcessBehavior>> behaviors;
  behaviors.push_back(std::make_unique<IdleBehavior>());
  const sim::Network network(std::move(behaviors), {false}, sim::Rng(1));
  obs::GuardedMetricsSink sink;
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::ostringstream os;
      sink.write_prometheus(os);
    }
  });
  for (int run = 0; run < 20; ++run) {
    obs::RunInfo info;
    info.algorithm = core::Algorithm::kOpRenaming;
    info.n = 10;
    info.t = 3;
    info.adversary = "silent";
    info.seed = static_cast<std::uint64_t>(run + 1);
    sink.on_run_start(info);
    for (int round = 1; round <= 12; ++round) {
      obs::RoundSample sample;
      sample.round = round;
      sample.metrics.messages = 100;
      sample.metrics.bits = 6400;
      sink.on_round(sample, network);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  std::ostringstream os;
  sink.write_prometheus(os);
  EXPECT_NE(os.str().find("byzrename_rounds_total"), std::string::npos) << os.str();
}

}  // namespace
