// End-to-end tests of the sizing daemon: a real Server on an ephemeral
// localhost port, real Clients, injected faults. The suite name carries
// "Resilience" on purpose — CI reruns it under ThreadSanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "macros/registry.h"
#include "models/fitter.h"
#include "serve/client.h"
#include "serve/request.h"
#include "serve/server.h"
#include "tech/tech.h"
#include "util/fault.h"
#include "util/json.h"

namespace smart::serve {
namespace {

using util::FailureReason;

Request size_request(double delay_ps, bool use_cache = true) {
  Request r;
  r.type = "mux";
  r.topology = "strong_pass";
  r.n = 4;
  r.delay_ps = delay_ps;
  r.use_cache = use_cache;
  return r;
}

/// Pulls a numeric field out of a response payload.
double json_number(const std::string& payload, const char* key) {
  util::JsonValue root;
  EXPECT_TRUE(util::json_parse(payload, &root)) << payload;
  const util::JsonValue* v = root.find(key);
  EXPECT_NE(v, nullptr) << key << " missing in " << payload;
  return v != nullptr ? v->number : -1.0;
}

std::string json_string(const std::string& payload, const char* key) {
  util::JsonValue root;
  EXPECT_TRUE(util::json_parse(payload, &root)) << payload;
  const util::JsonValue* v = root.find(key);
  EXPECT_NE(v, nullptr) << key << " missing in " << payload;
  return v != nullptr ? v->str : "";
}

class ServeResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ctx_.db = &macros::builtin_database();
    ctx_.tech = &tech::default_tech();
    ctx_.lib = &models::default_library();
  }

  void TearDown() override {
    util::FaultInjector::instance().disarm();
    if (server_ != nullptr && server_->running()) {
      server_->request_shutdown();
      server_->wait();
    }
  }

  void start(ServerOptions opt = {}) {
    server_ = std::make_unique<Server>(ctx_, opt);
    const util::Status st = server_->start();
    ASSERT_TRUE(st.ok()) << st.to_string();
  }

  ClientOptions client_options(int max_retries = 3) const {
    ClientOptions copt;
    copt.port = server_->port();
    copt.max_retries = max_retries;
    copt.backoff_initial_ms = 5.0;
    copt.backoff_max_ms = 40.0;
    // Real tight-spec solves take tens of seconds under sanitizers on a
    // loaded runner; tests that *want* a client to give up early set
    // io_timeout_ms explicitly.
    copt.io_timeout_ms = 180000.0;
    return copt;
  }

  ServeContext ctx_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServeResilienceTest, PingPong) {
  start();
  Client client(client_options());
  Frame reply;
  const util::Status st = client.call(FrameType::kPing, "", -1.0, &reply);
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_EQ(reply.type, FrameType::kPong);
}

TEST_F(ServeResilienceTest, SizeRequestSolvesAndRepeatHitsCache) {
  start();
  Client client(client_options());
  const std::string payload = request_json(size_request(-1.0));
  Frame first, second;
  ASSERT_TRUE(client.call(FrameType::kSize, payload, -1.0, &first).ok());
  EXPECT_EQ(json_string(first.payload, "cache"), "miss");
  EXPECT_GT(json_number(first.payload, "newton_iterations"), 0.0);

  ASSERT_TRUE(client.call(FrameType::kSize, payload, -1.0, &second).ok());
  // Identical request: served from the cache, without a solve — the
  // stored result comes back verbatim.
  EXPECT_EQ(json_string(second.payload, "cache"), "hit");
  EXPECT_DOUBLE_EQ(json_number(second.payload, "total_width_um"),
                   json_number(first.payload, "total_width_um"));
  const CacheStats cs = server_->cache()->stats();
  EXPECT_EQ(cs.hits, 1u);
}

TEST_F(ServeResilienceTest, NearNeighborWarmStartCutsNewtonIterations) {
  start();
  Client client(client_options());
  // Tight specs (this mux measures ~71ps at minimum widths): phase I and
  // the barrier schedule do real work, which is where a warm start saves.
  // delay=64 is within 25% of 62 → near-hit.
  Frame seed, warm, cold;
  ASSERT_TRUE(client
                  .call(FrameType::kSize, request_json(size_request(62.0)),
                        -1.0, &seed)
                  .ok())
      << seed.payload;
  ASSERT_TRUE(client
                  .call(FrameType::kSize, request_json(size_request(64.0)),
                        -1.0, &warm)
                  .ok())
      << warm.payload;
  EXPECT_EQ(json_string(warm.payload, "cache"), "warm") << warm.payload;
  ASSERT_TRUE(
      client
          .call(FrameType::kSize, request_json(size_request(64.0, false)),
                -1.0, &cold)
          .ok())
      << cold.payload;
  const double warm_iters = json_number(warm.payload, "newton_iterations");
  const double cold_iters = json_number(cold.payload, "newton_iterations");
  // The warm-started solve of the same spec must be measurably cheaper.
  EXPECT_LT(warm_iters, cold_iters)
      << "warm " << warm.payload << "\ncold " << cold.payload;
  // ...and land on the same answer: warm starts buy speed, not drift.
  EXPECT_NEAR(json_number(warm.payload, "total_width_um"),
              json_number(cold.payload, "total_width_um"),
              0.05 * json_number(cold.payload, "total_width_um"));
}

TEST_F(ServeResilienceTest, DeadlineSpentInQueueBecomesTypedTimeout) {
  ServerOptions opt;
  opt.workers = 1;
  start(opt);
  // Occupy the single worker (the stall site sleeps 200ms per request),
  // then queue a request whose 100ms budget burns away behind it. The
  // server must answer it with a typed kTimeout frame *without* starting
  // the solve.
  util::FaultInjector::instance().arm(util::FaultClass::kServeWorkerStall,
                                      "serve.worker");
  Client blocker(client_options(0));
  Frame blocker_reply;
  std::thread occupant([&] {
    blocker.call(FrameType::kSize, request_json(size_request(-1.0)), -1.0,
                 &blocker_reply);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  Client client(client_options(0));
  Frame reply;
  const util::Status st = client.call(
      FrameType::kSize, request_json(size_request(62.0, false)), 100.0,
      &reply);
  occupant.join();
  util::FaultInjector::instance().disarm();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.reason, FailureReason::kTimeout) << st.to_string();
  EXPECT_GE(server_->stats().timeouts, 1u);
  // The daemon is still healthy afterwards.
  Frame pong;
  EXPECT_TRUE(client.call(FrameType::kPing, "", -1.0, &pong).ok());
}

TEST_F(ServeResilienceTest, AdmissionControlShedsWhenQueueFull) {
  ServerOptions opt;
  opt.workers = 1;
  opt.max_queue = 1;
  start(opt);
  // Stall the single worker so requests pile up behind it.
  util::FaultInjector::instance().arm(util::FaultClass::kServeWorkerStall,
                                      "serve.worker", 200.0);
  std::atomic<int> shed{0}, okay{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 6; ++i) {
    clients.emplace_back([&] {
      Client c(client_options(0));  // no retries: observe the shed
      Frame reply;
      const util::Status st =
          c.call(FrameType::kSize, request_json(size_request(-1.0)), -1.0,
                 &reply);
      if (st.ok())
        ++okay;
      else if (reply.error == ErrorCode::kOverloaded)
        ++shed;
    });
  }
  for (auto& t : clients) t.join();
  util::FaultInjector::instance().disarm();
  EXPECT_GT(shed.load(), 0) << "queue of 1 never overflowed";
  EXPECT_GT(okay.load(), 0) << "nothing was served";
  EXPECT_EQ(server_->stats().shed, static_cast<uint64_t>(shed.load()));
  // A shed is retryable: with retries enabled the same request succeeds.
  Client retrying(client_options(5));
  Frame reply;
  EXPECT_TRUE(retrying
                  .call(FrameType::kSize, request_json(size_request(-1.0)),
                        -1.0, &reply)
                  .ok());
}

TEST_F(ServeResilienceTest, MidSolveDisconnectReclaimsSlot) {
  ServerOptions opt;
  opt.workers = 1;
  start(opt);
  // Hold the worker (the stall site sleeps 200ms per request) for longer
  // than the 100ms read budget: the client gives up and closes while the
  // server is still working on its request.
  util::FaultInjector::instance().arm(util::FaultClass::kServeWorkerStall,
                                      "serve.worker", 10.0, 0, 1);
  {
    ClientOptions copt = client_options(0);
    copt.io_timeout_ms = 100.0;
    Client client(copt);
    Frame reply;
    const util::Status st =
        client.call(FrameType::kSize, request_json(size_request(62.0, false)),
                    -1.0, &reply);
    EXPECT_FALSE(st.ok());  // gave up waiting
  }  // ~Client closes the socket mid-solve
  // The worker must finish (or skip) the orphaned request, record the
  // abandonment, and be free for new work.
  Client probe(client_options());
  Frame pong;
  ASSERT_TRUE(probe.call(FrameType::kPing, "", -1.0, &pong).ok());
  // The orphaned solve runs to completion first; under sanitizers that
  // can take tens of seconds, so the budget here is generous (the loop
  // exits the moment the slot is reclaimed).
  for (int i = 0; i < 600; ++i) {
    if (server_->stats().in_flight == 0 && server_->stats().abandoned > 0)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  const ServerStats st = server_->stats();
  EXPECT_EQ(st.in_flight, 0u);
  EXPECT_EQ(st.queue_depth, 0u);
  EXPECT_GT(st.abandoned, 0u);
  // And the pool still solves. Fresh client: the probe's pooled
  // connection may have been idle-reaped while the orphaned solve ran
  // (legitimate — a dead pooled socket mid-send is not retried).
  Client fresh(client_options());
  Frame reply;
  EXPECT_TRUE(fresh
                  .call(FrameType::kSize, request_json(size_request(-1.0)),
                        -1.0, &reply)
                  .ok());
}

TEST_F(ServeResilienceTest, MalformedBytesGetTypedErrorFrame) {
  start();
  Client raw(client_options(0));
  Frame reply;
  // First a good ping to open the connection…
  ASSERT_TRUE(raw.call(FrameType::kPing, "", -1.0, &reply).ok());
  // …then corrupt the next frame through the fault injector at the
  // server's read site, which XORs a received byte — the same damage a
  // flaky peer or a bit flip on the wire would do.
  util::FaultInjector::instance().arm(util::FaultClass::kServeFrameCorrupt,
                                      "serve.frame", 10.0, 0, 1);
  const util::Status st = raw.call(FrameType::kPing, "", -1.0, &reply);
  util::FaultInjector::instance().disarm();
  EXPECT_FALSE(st.ok());
  EXPECT_GE(server_->stats().bad_frames, 1u);
  // The server survives and fresh connections work.
  Client fresh(client_options());
  EXPECT_TRUE(fresh.call(FrameType::kPing, "", -1.0, &reply).ok());
}

TEST_F(ServeResilienceTest, ResilienceSweepUnderFaults) {
  ServerOptions opt;
  opt.workers = 2;
  start(opt);
  // Pre-warm the cache so most sweep requests are cheap exact hits and the
  // sweep exercises the serving layer, not the solver.
  {
    Client warm(client_options());
    Frame reply;
    ASSERT_TRUE(warm.call(FrameType::kSize,
                          request_json(size_request(-1.0)), -1.0, &reply)
                    .ok())
        << reply.payload;
  }

  const util::FaultClass kFaults[] = {
      util::FaultClass::kServeFrameCorrupt, util::FaultClass::kServeIoFail,
      util::FaultClass::kServeWorkerStall,
      util::FaultClass::kServeCachePoison};
  const char* kSites[] = {"serve.frame", "serve.read", "serve.worker",
                          "serve.cache.lookup"};
  for (size_t phase = 0; phase < 4; ++phase) {
    // Every second matching hit fires, at most 4 times per phase: most of
    // the fleet sees healthy service while some requests hit the fault.
    util::FaultInjector::instance().arm(kFaults[phase], kSites[phase],
                                        50.0, 1, 4);
    std::atomic<int> answered{0}, transport_failures{0};
    std::vector<std::thread> fleet;
    for (int c = 0; c < 8; ++c) {
      fleet.emplace_back([&, c] {
        Client client(client_options(2));
        for (int i = 0; i < 3; ++i) {
          Frame reply;
          const FrameType type =
              (c + i) % 2 == 0 ? FrameType::kPing : FrameType::kSize;
          const std::string payload =
              type == FrameType::kPing ? ""
                                       : request_json(size_request(-1.0));
          const util::Status st = client.call(type, payload, 5000.0, &reply);
          // Every call must RETURN — ok, a typed error frame, or a
          // transport error. Hangs and crashes are the failure mode.
          if (st.ok() || reply.type == FrameType::kError)
            ++answered;
          else
            ++transport_failures;
        }
      });
    }
    for (auto& t : fleet) t.join();
    util::FaultInjector::instance().disarm();
    EXPECT_GT(answered.load(), 0) << "phase " << kSites[phase];
    // The daemon must still be alive and serving after the fault phase.
    ASSERT_TRUE(server_->running()) << "phase " << kSites[phase];
    Client probe(client_options());
    Frame pong;
    EXPECT_TRUE(probe.call(FrameType::kPing, "", -1.0, &pong).ok())
        << "phase " << kSites[phase];
  }

  // No leaked state: every connection the fleet opened is gone once the
  // clients are destroyed (the io thread notices the closes within its
  // poll cycle), and any straggling solve finishes.
  for (int i = 0; i < 100; ++i) {
    const ServerStats s = server_->stats();
    if (s.connections <= 1 && s.in_flight == 0 && s.queue_depth == 0)
      break;  // the last probe connection may linger
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  const ServerStats s = server_->stats();
  EXPECT_LE(s.connections, 1u);
  EXPECT_EQ(s.in_flight, 0u);
  EXPECT_EQ(s.queue_depth, 0u);
}

TEST_F(ServeResilienceTest, GracefulDrainViaShutdownFrame) {
  start();
  Client client(client_options());
  Frame reply;
  ASSERT_TRUE(client.call(FrameType::kPing, "", -1.0, &reply).ok());
  ASSERT_TRUE(client.call(FrameType::kShutdown, "", -1.0, &reply).ok());
  EXPECT_NE(reply.payload.find("draining"), std::string::npos);
  server_->wait();
  EXPECT_FALSE(server_->running());
  // New connections are refused once drained.
  Client late(client_options(0));
  Frame pong;
  EXPECT_FALSE(late.call(FrameType::kPing, "", -1.0, &pong).ok());
}

TEST_F(ServeResilienceTest, DrainingServerRejectsNewSolvesTyped) {
  ServerOptions opt;
  opt.workers = 1;
  start(opt);
  // Occupy the worker with a stalled solve (the stall site sleeps 200ms),
  // then request shutdown: the in-flight solve finishes, but a new request
  // gets kShuttingDown.
  // The late client's connection is opened *before* the drain begins —
  // draining closes the listener, but established connections get the
  // typed kShuttingDown rejection.
  Client late(client_options(0));
  Frame late_reply;
  ASSERT_TRUE(late.call(FrameType::kPing, "", -1.0, &late_reply).ok());

  util::FaultInjector::instance().arm(util::FaultClass::kServeWorkerStall,
                                      "serve.worker", 10.0, 0, 1);
  Client busy(client_options(0));
  Frame busy_reply;
  std::thread solver([&] {
    busy.call(FrameType::kSize, request_json(size_request(62.0, false)),
              -1.0, &busy_reply);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server_->request_shutdown();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const util::Status st =
      late.call(FrameType::kSize, request_json(size_request(-1.0)), -1.0,
                &late_reply);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(late_reply.type, FrameType::kError);
  EXPECT_EQ(late_reply.error, ErrorCode::kShuttingDown);
  // A fresh connection is refused outright: the listener is gone.
  Client refused(client_options(0));
  Frame refused_reply;
  EXPECT_FALSE(
      refused.call(FrameType::kPing, "", -1.0, &refused_reply).ok());
  solver.join();
  // The in-flight solve was answered, not dropped.
  EXPECT_TRUE(busy_reply.type == FrameType::kResult ||
              busy_reply.type == FrameType::kError);
  server_->wait();
  EXPECT_FALSE(server_->running());
}

TEST_F(ServeResilienceTest, UnixSocketModeServes) {
  ServerOptions opt;
  opt.unix_path = ::testing::TempDir() + "smartd_test.sock";
  start(opt);
  ClientOptions copt;
  copt.unix_path = opt.unix_path;
  Client client(copt);
  Frame reply;
  ASSERT_TRUE(client.call(FrameType::kPing, "", -1.0, &reply).ok());
  EXPECT_EQ(reply.type, FrameType::kPong);
}

}  // namespace
}  // namespace smart::serve
