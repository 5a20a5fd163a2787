// Protocol-robustness and serving-policy suite for the pgmcmld core
// (src/service): malformed/oversized/truncated request bodies are answered
// with path-qualified diagnostics (never a crash or a wedged connection),
// deadlines expire while queued or mid-plan, admission control rejects
// beyond the bounded queue, drain answers everything already admitted, and
// N concurrent clients receive responses bitwise equal to the serial
// offline runner for the same experiment digest.
#include <gtest/gtest.h>

#include <unistd.h>

#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "pgmcml/cache/cache.hpp"
#include "pgmcml/config/experiment.hpp"
#include "pgmcml/config/reader.hpp"
#include "pgmcml/config/request.hpp"
#include "pgmcml/config/technology.hpp"
#include "pgmcml/service/client.hpp"
#include "pgmcml/service/server.hpp"

namespace pgmcml::service {
namespace {

namespace json = obs::json;

std::string make_temp_dir() {
  char tmpl[] = "/tmp/pgmcml-service-XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  if (dir == nullptr) throw std::runtime_error("mkdtemp failed");
  return dir;
}

/// A self-contained experiment document: inline technology (the builtin
/// 90 nm typical corner), an MCML variant at bias `iss`, and a
/// characterize plan over `cells`.  Varying `iss` gives each test a
/// distinct cache key, so no test warms another's design point.
json::Value make_experiment(const std::string& name, double iss,
                            const std::vector<std::string>& cells) {
  json::Object variant;
  variant.emplace_back("pgmcml_schema", std::int64_t{1});
  variant.emplace_back("kind", "cell_variant");
  variant.emplace_back("name", name + "-variant");
  variant.emplace_back("style", "mcml");
  variant.emplace_back("iss", iss);

  json::Object plan;
  plan.emplace_back("pgmcml_schema", std::int64_t{1});
  plan.emplace_back("kind", "plan");
  plan.emplace_back("name", name + "-plan");
  plan.emplace_back("task", "characterize");
  if (!cells.empty()) {
    json::Array cs;
    for (const std::string& cell : cells) cs.emplace_back(cell);
    plan.emplace_back("cells", json::Value(std::move(cs)));
  }

  json::Object e;
  e.emplace_back("pgmcml_schema", std::int64_t{1});
  e.emplace_back("kind", "experiment");
  e.emplace_back("name", name);
  e.emplace_back("technology",
                 config::technology_to_json(spice::TechnologyParams::builtin90(
                     spice::Corner::kTypical)));
  e.emplace_back("design", json::Value(std::move(variant)));
  e.emplace_back("plan", json::Value(std::move(plan)));
  return json::Value(std::move(e));
}

/// Shared server for the protocol tests: small queue, tiny line cap (the
/// oversized test needs one), no default deadline.
class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = make_temp_dir();
    ServerOptions options;
    options.socket_path = dir_ + "/pgmcmld.sock";
    options.workers = 2;
    options.queue_depth = 8;
    options.max_request_bytes = 4096;
    server_ = std::make_unique<Server>(options);
    server_->start();
  }

  void TearDown() override {
    server_->drain();
    server_->wait();
  }

  Client connect() { return Client::connect_unix(dir_ + "/pgmcmld.sock"); }

  std::string dir_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServiceTest, PingRoundTrips) {
  Client c = connect();
  const config::Response r =
      config::response_from_json(c.call(make_simple_request("p1", "ping")));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.id, "p1");
  EXPECT_TRUE(r.report.at("pong").as_bool());
  EXPECT_FALSE(r.report.at("draining").as_bool());
}

TEST_F(ServiceTest, StatszReportsCountersQueueAndOptions) {
  Client c = connect();
  const config::Response r =
      config::response_from_json(c.call(make_simple_request("s1", "statsz")));
  ASSERT_TRUE(r.ok());
  // The snapshot is the real obs registry: this very request was counted.
  const json::Value& counters = r.report.at("snapshot").at("counters");
  EXPECT_GE(counters.number_or("service.requests", 0.0), 1.0);
  EXPECT_EQ(r.report.at("queue").at("capacity").as_number(), 8.0);
  EXPECT_FALSE(r.report.at("queue").at("draining").as_bool());
  EXPECT_EQ(r.report.at("options").at("workers").as_number(), 2.0);
}

TEST_F(ServiceTest, MalformedJsonIsAnsweredAndTheConnectionRecovers) {
  Client c = connect();
  const config::Response bad =
      config::response_from_json(json::Value::parse(c.call_raw("{nope")));
  EXPECT_EQ(bad.status, config::ResponseStatus::kError);
  EXPECT_NE(bad.error.find("request"), std::string::npos) << bad.error;
  // The connection is still serviceable.
  const config::Response ping =
      config::response_from_json(c.call(make_simple_request("p2", "ping")));
  EXPECT_TRUE(ping.ok());
}

TEST_F(ServiceTest, InvalidRequestsGetPathQualifiedConfigErrors) {
  Client c = connect();
  // Unknown op: the diagnostic names the path and the offending label.
  config::Response r = config::response_from_json(json::Value::parse(c.call_raw(
      R"({"pgmcml_schema": 1, "kind": "request", "id": "x", "op": "fly"})")));
  EXPECT_EQ(r.status, config::ResponseStatus::kError);
  EXPECT_EQ(r.id, "x");
  EXPECT_NE(r.error.find("request/op"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("fly"), std::string::npos) << r.error;

  // Unknown member under the closed-world envelope.
  r = config::response_from_json(json::Value::parse(c.call_raw(
      R"({"pgmcml_schema": 1, "kind": "request", "id": "x", "op": "ping",)"
      R"( "surprise": 1})")));
  EXPECT_EQ(r.status, config::ResponseStatus::kError);
  EXPECT_NE(r.error.find("request/surprise"), std::string::npos) << r.error;

  // A run without an experiment.
  r = config::response_from_json(json::Value::parse(c.call_raw(
      R"({"pgmcml_schema": 1, "kind": "request", "id": "x", "op": "run"})")));
  EXPECT_EQ(r.status, config::ResponseStatus::kError);
  EXPECT_NE(r.error.find("experiment"), std::string::npos) << r.error;

  // A malformed experiment inside the request keeps its inner path.
  json::Value req = make_run_request("x", json::Value::parse(
      R"({"pgmcml_schema": 1, "kind": "experiment", "name": "e",
          "technology": "no-such-file.json",
          "design": {"pgmcml_schema": 1, "kind": "cell_variant",
                     "name": "v", "style": "mcml"},
          "plan": {"pgmcml_schema": 1, "kind": "plan", "name": "p",
                   "task": "characterize"}})"));
  r = config::response_from_json(c.call(req));
  EXPECT_EQ(r.status, config::ResponseStatus::kError);
  EXPECT_NE(r.error.find("no-such-file.json"), std::string::npos) << r.error;

  // Every failure so far left the connection usable.
  EXPECT_TRUE(config::response_from_json(
                  c.call(make_simple_request("p3", "ping")))
                  .ok());
}

TEST_F(ServiceTest, OversizedRequestIsAnsweredOnceAndTheConnectionRecovers) {
  Client c = connect();
  // 128 KiB with no newline: larger than the server's 64 KiB read buffer,
  // so the first chunk already exceeds max_request_bytes (4096) before any
  // newline can appear -- the oversized path triggers deterministically.
  c.send_raw(std::string(128 * 1024, 'x'));
  // The bare newline terminates the discarded line; the response already in
  // flight is the oversized diagnostic.
  const config::Response big =
      config::response_from_json(json::Value::parse(c.call_raw("")));
  EXPECT_EQ(big.status, config::ResponseStatus::kError);
  EXPECT_NE(big.error.find("exceeds"), std::string::npos) << big.error;
  EXPECT_NE(big.error.find("4096"), std::string::npos) << big.error;
  // Exactly one answer, and the next request on the same connection works.
  const config::Response ping =
      config::response_from_json(c.call(make_simple_request("p4", "ping")));
  EXPECT_TRUE(ping.ok());
  EXPECT_EQ(ping.id, "p4");
}

TEST_F(ServiceTest, TruncatedRequestNeverWedgesTheServer) {
  {
    Client c = connect();
    c.send_raw(R"({"pgmcml_schema": 1, "kind": "requ)");  // no newline
    c.close();  // client dies mid-request
  }
  // The server shrugs it off; fresh connections serve normally.
  Client c = connect();
  EXPECT_TRUE(config::response_from_json(
                  c.call(make_simple_request("p5", "ping")))
                  .ok());
}

TEST_F(ServiceTest, DeadlineExpiryAnswersExpiredNotAPartialReport) {
  Client c = connect();
  // A cold full-library characterization takes orders of magnitude longer
  // than 1 ms, so the deadline lapses either while queued or at a batch
  // boundary mid-plan -- both must answer "expired".
  const json::Value req = make_run_request(
      "slow", make_experiment("deadline-test", 4.9e-05, {}), 1);
  const config::Response r = config::response_from_json(c.call(req));
  EXPECT_EQ(r.status, config::ResponseStatus::kExpired);
  EXPECT_NE(r.error.find("deadline expired"), std::string::npos) << r.error;
  // The connection survives an expired request.
  EXPECT_TRUE(config::response_from_json(
                  c.call(make_simple_request("p6", "ping")))
                  .ok());
}

TEST_F(ServiceTest, ConcurrentClientsMatchTheSerialRunnerBitwise) {
  const json::Value experiment =
      make_experiment("concurrent-test", 5.1e-05, {"BUF", "XOR2"});
  // The serial reference: the same document through run_experiment
  // directly, exactly what `pgmcml_run --config` prints.
  const config::Experiment parsed =
      config::experiment_from_json(experiment, "request/experiment", ".");
  const std::string reference = config::run_experiment(parsed).dump(2);
  const std::string digest = config::experiment_digest(parsed).hex();

  constexpr int kClients = 4;
  std::vector<config::Response> responses(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client c = connect();
      responses[i] = config::response_from_json(
          c.call(make_run_request("c" + std::to_string(i), experiment)));
    });
  }
  for (std::thread& t : threads) t.join();

  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(responses[i].ok()) << responses[i].error;
    EXPECT_EQ(responses[i].id, "c" + std::to_string(i));
    EXPECT_EQ(responses[i].digest, digest);
    EXPECT_EQ(responses[i].report.dump(2), reference) << "client " << i;
  }
}

TEST(ServiceAdmission, QueueFullAnswersRejectedWithRetryAfter) {
  const std::string dir = make_temp_dir();
  std::mutex latch_mutex;
  std::condition_variable latch_cv;
  bool parked = false, release = false;

  ServerOptions options;
  options.socket_path = dir + "/pgmcmld.sock";
  options.workers = 1;
  options.queue_depth = 1;
  options.retry_after_ms = 250;
  // Park the lone worker as it picks the first job up, so the second fills
  // the queue and the third must be rejected -- deterministically.
  options.test_job_hook = [&] {
    std::unique_lock<std::mutex> lock(latch_mutex);
    parked = true;
    latch_cv.notify_all();
    latch_cv.wait(lock, [&] { return release; });
  };
  Server server(options);
  server.start();

  const json::Value experiment =
      make_experiment("queue-test", 5.2e-05, {"BUF"});
  config::Response first, second;
  std::thread t1([&] {
    Client c = Client::connect_unix(dir + "/pgmcmld.sock");
    first = config::response_from_json(
        c.call(make_run_request("q1", experiment)));
  });
  {
    std::unique_lock<std::mutex> lock(latch_mutex);
    latch_cv.wait(lock, [&] { return parked; });
  }
  std::thread t2([&] {
    Client c = Client::connect_unix(dir + "/pgmcmld.sock");
    second = config::response_from_json(
        c.call(make_run_request("q2", experiment)));
  });
  // Wait until q2 is actually queued (the worker is parked on q1).
  while (server.queue_depth() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  Client c = Client::connect_unix(dir + "/pgmcmld.sock");
  const config::Response rejected = config::response_from_json(
      c.call(make_run_request("q3", experiment)));
  EXPECT_EQ(rejected.status, config::ResponseStatus::kRejected);
  EXPECT_EQ(rejected.retry_after_ms, 250u);
  EXPECT_NE(rejected.error.find("queue full"), std::string::npos)
      << rejected.error;

  {
    std::lock_guard<std::mutex> lock(latch_mutex);
    release = true;
  }
  latch_cv.notify_all();
  t1.join();
  t2.join();
  // Backpressure never cost the admitted requests anything.
  EXPECT_TRUE(first.ok()) << first.error;
  EXPECT_TRUE(second.ok()) << second.error;
  server.drain();
  server.wait();
}

TEST(ServiceDrain, DrainAnswersEverythingAlreadyAdmitted) {
  const std::string dir = make_temp_dir();
  std::mutex latch_mutex;
  std::condition_variable latch_cv;
  bool parked = false, release = false;
  bool park_armed = true;

  ServerOptions options;
  options.socket_path = dir + "/pgmcmld.sock";
  options.workers = 1;
  options.queue_depth = 4;
  options.test_job_hook = [&] {
    std::unique_lock<std::mutex> lock(latch_mutex);
    if (!park_armed) return;  // only the first pickup parks
    park_armed = false;
    parked = true;
    latch_cv.notify_all();
    latch_cv.wait(lock, [&] { return release; });
  };
  Server server(options);
  server.start();

  const json::Value experiment =
      make_experiment("drain-test", 5.3e-05, {"BUF"});
  config::Response running, queued;
  std::thread t1([&] {
    Client c = Client::connect_unix(dir + "/pgmcmld.sock");
    running = config::response_from_json(
        c.call(make_run_request("d1", experiment)));
  });
  {
    std::unique_lock<std::mutex> lock(latch_mutex);
    latch_cv.wait(lock, [&] { return parked; });
  }
  std::thread t2([&] {
    Client c = Client::connect_unix(dir + "/pgmcmld.sock");
    queued = config::response_from_json(
        c.call(make_run_request("d2", experiment)));
  });
  while (server.queue_depth() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Drain with one job in flight and one queued, then let the worker go.
  server.drain();
  EXPECT_TRUE(server.draining());
  {
    std::lock_guard<std::mutex> lock(latch_mutex);
    release = true;
  }
  latch_cv.notify_all();
  server.wait();
  t1.join();
  t2.join();
  // Both admitted requests were answered normally, not dropped.
  EXPECT_TRUE(running.ok()) << running.error;
  EXPECT_TRUE(queued.ok()) << queued.error;

  // Post-drain, new connections are refused (listener closed + unlinked).
  EXPECT_THROW(Client::connect_unix(dir + "/pgmcmld.sock"),
               std::runtime_error);
}

TEST(ServiceCache, WarmRequestsServeFromTheSharedCacheWithoutSolves) {
  const std::string dir = make_temp_dir();
  cache::CacheOptions cache_options;
  cache_options.enabled = true;
  cache_options.dir = dir + "/cache";
  cache::ResultCache::global().configure(cache_options);

  ServerOptions options;
  options.socket_path = dir + "/pgmcmld.sock";
  options.workers = 1;  // serial, so per-request counter deltas are exact
  Server server(options);
  server.start();

  const json::Value experiment = make_experiment(
      "warm-test", 5.4e-05, {"BUF", "XOR2", "AND2", "DLATCH"});
  Client c = Client::connect_unix(dir + "/pgmcmld.sock");
  const config::Response cold = config::response_from_json(
      c.call(make_run_request("cold", experiment)));
  ASSERT_TRUE(cold.ok()) << cold.error;
  EXPECT_EQ(cold.stats.cache_hits, 0u);
  EXPECT_GT(cold.stats.cache_misses, 0u);
  EXPECT_GT(cold.stats.newton_iterations, 0u);

  const config::Response warm = config::response_from_json(
      c.call(make_run_request("warm", experiment)));
  ASSERT_TRUE(warm.ok()) << warm.error;
  // The warm tier swallowed every solve: no Newton iterations at all.
  EXPECT_EQ(warm.stats.newton_iterations, 0u);
  EXPECT_GT(warm.stats.cache_hit_rate(), 0.9);
  EXPECT_TRUE(warm.stats.exact);
  // And the answers are bitwise identical.
  EXPECT_EQ(warm.report.dump(2), cold.report.dump(2));
  EXPECT_EQ(warm.digest, cold.digest);

  server.drain();
  server.wait();
  cache::ResultCache::global().configure(cache::CacheOptions{});
}

TEST(ServiceTcp, LoopbackTcpServesTheSameProtocol) {
  ServerOptions options;
  options.tcp_port = 0;  // ephemeral
  Server server(options);
  server.start();
  ASSERT_GT(server.tcp_port(), 0);

  Client c = Client::connect_tcp("127.0.0.1", server.tcp_port());
  const config::Response r =
      config::response_from_json(c.call(make_simple_request("tcp1", "ping")));
  EXPECT_TRUE(r.ok());
  server.drain();
  server.wait();
}

}  // namespace
}  // namespace pgmcml::service
