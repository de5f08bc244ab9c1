// SMART-Pulse tests: the daemon's stats/health plane, per-request
// accounting (access log + slow-request spool), cross-process trace
// propagation, and the client's per-call timing. The stats snapshot is
// always cross-checked against what the clients themselves observed —
// the telemetry must agree with ground truth, not merely be present.
// The suite name carries "Pulse" on purpose — CI reruns it under
// ThreadSanitizer.

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "macros/registry.h"
#include "models/fitter.h"
#include "obs/obs.h"
#include "serve/client.h"
#include "serve/request.h"
#include "serve/server.h"
#include "tech/tech.h"
#include "util/fault.h"
#include "util/file.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/strfmt.h"

namespace smart::serve {
namespace {

using util::JsonValue;

Request size_request(double delay_ps, bool use_cache = true) {
  Request r;
  r.type = "mux";
  r.topology = "strong_pass";
  r.n = 4;
  r.delay_ps = delay_ps;
  r.use_cache = use_cache;
  return r;
}

double jnum(const JsonValue* obj, const char* key) {
  const JsonValue* v = obj != nullptr ? obj->find(key) : nullptr;
  EXPECT_NE(v, nullptr) << key << " missing";
  return v != nullptr ? v->number : -1.0;
}

std::vector<std::string> list_dir(const std::string& dir) {
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name != "." && name != "..") out.push_back(name);
  }
  ::closedir(d);
  return out;
}

std::string read_file(const std::string& path) {
  std::string text;
  util::read_file(path, &text);
  return text;
}

class ServePulseTest : public ::testing::Test {
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
    auto& tel = obs::Telemetry::instance();
    tel.enable(false);
    tel.reset();
    tel.set_process_label("");
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
    // Solves take much longer under sanitizers on a loaded runner.
    copt.io_timeout_ms = 180000.0;
    return copt;
  }

  /// Waits until the server has accounted `n` requests. The accounting
  /// tail (encode/total histograms, responses counter, access log) runs on
  /// the worker *after* the reply bytes are already on the wire, so a
  /// client holding the reply does not yet imply the ledger is current.
  void wait_accounted(size_t n) {
    for (int i = 0; i < 500 && server_->accounted_requests() < n; ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_GE(server_->accounted_requests(), n);
  }

  /// One kStats round trip, parsed; fails the test on any error.
  JsonValue fetch_stats() {
    Client client(client_options());
    Frame reply;
    const util::Status st =
        client.call(FrameType::kStats, "", -1.0, &reply);
    EXPECT_TRUE(st.ok()) << st.to_string();
    JsonValue doc;
    EXPECT_TRUE(util::json_parse(reply.payload, &doc)) << reply.payload;
    return doc;
  }

  ServeContext ctx_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServePulseTest, StatsSnapshotMatchesClientObservedOutcomes) {
  ServerOptions opt;
  opt.workers = 2;
  start(opt);
  Client client(client_options());
  Frame reply;

  // Mixed workload with known outcomes: one ping, a cache miss, the same
  // request again (exact hit), and one doomed request (unknown topology).
  ASSERT_TRUE(client.call(FrameType::kPing, "", -1.0, &reply).ok());
  const std::string good = request_json(size_request(-1.0));
  ASSERT_TRUE(client.call(FrameType::kSize, good, -1.0, &reply).ok());
  ASSERT_TRUE(client.call(FrameType::kSize, good, -1.0, &reply).ok());
  Request bad = size_request(-1.0);
  bad.topology = "no_such_topology";
  const util::Status bad_st =
      client.call(FrameType::kSize, request_json(bad), -1.0, &reply);
  EXPECT_FALSE(bad_st.ok());
  EXPECT_EQ(reply.type, FrameType::kError);
  wait_accounted(3);

  const JsonValue doc = fetch_stats();
  const JsonValue* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(jnum(counters, "pings"), 1.0);
  EXPECT_EQ(jnum(counters, "requests"), 3.0);
  EXPECT_EQ(jnum(counters, "responses"), 3.0);
  EXPECT_EQ(jnum(counters, "errors"), 1.0);
  EXPECT_EQ(jnum(counters, "shed"), 0.0);
  EXPECT_EQ(jnum(counters, "stats_requests"), 1.0);

  // The cache's view agrees with the client-observed hit/miss outcomes.
  const JsonValue* cache = doc.find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(jnum(cache, "hits"), 1.0);
  EXPECT_EQ(jnum(cache, "misses"), 1.0);

  // Every admitted request went through every stage exactly once.
  const JsonValue* stages = doc.find("stages");
  ASSERT_NE(stages, nullptr);
  for (const char* stage :
       {"queue_ms", "decode_ms", "solve_ms", "encode_ms", "total_ms"}) {
    EXPECT_EQ(jnum(stages->find(stage), "count"), 3.0) << stage;
    EXPECT_GE(jnum(stages->find(stage), "p50"), 0.0) << stage;
  }

  // The failed request is typed in the error-by-code breakdown.
  const JsonValue* by_code = doc.find("errors_by_code");
  ASSERT_NE(by_code, nullptr);
  double total_errors = 0.0;
  for (const auto& [code, count] : by_code->object)
    total_errors += count.number;
  EXPECT_EQ(total_errors, 1.0);

  // Per-request accounting: 3 solving requests (pings are not request
  // records), each with a nonzero trace id and the observed cache state.
  // With two workers the accounting order can differ from issue order, so
  // the outcomes are checked as a set (ordering is pinned in the
  // single-worker ring test below).
  EXPECT_EQ(jnum(&doc, "requests_total"), 3.0);
  const JsonValue* recent = doc.find("recent");
  ASSERT_NE(recent, nullptr);
  ASSERT_EQ(recent->array.size(), 3u);
  std::multiset<std::string> cache_states;
  int failed_records = 0;
  for (const JsonValue& rec : recent->array) {
    EXPECT_GT(jnum(&rec, "trace_id"), 0.0);
    EXPECT_GE(jnum(&rec, "total_us"), jnum(&rec, "solve_us"));
    cache_states.insert(rec.find("cache")->str);
    if (rec.find("status")->str != "ok") ++failed_records;
  }
  EXPECT_EQ(cache_states.count("miss"), 1u);
  EXPECT_EQ(cache_states.count("hit"), 1u);
  EXPECT_EQ(failed_records, 1);

  // Utilization accounting ran: some worker-busy time accumulated.
  const JsonValue* util_v = doc.find("utilization");
  ASSERT_NE(util_v, nullptr);
  EXPECT_EQ(jnum(util_v, "workers"), 2.0);
  EXPECT_GT(jnum(util_v, "busy_us"), 0.0);
}

// Each counted event lands once in the stats snapshot and once in its
// `serve.<field>` telemetry counter, including the probe and fault
// counters that the io thread bumps.
TEST_F(ServePulseTest, EveryStatsCounterFeedsItsTelemetryCounter) {
  auto& tel = obs::Telemetry::instance();
  tel.reset();
  tel.enable(true);
  start();
  Client client(client_options());
  Frame reply;
  ASSERT_TRUE(client.call(FrameType::kPing, "", -1.0, &reply).ok());
  ASSERT_TRUE(client.call(FrameType::kPing, "", -1.0, &reply).ok());
  ASSERT_TRUE(client.call(FrameType::kHealth, "", -1.0, &reply).ok());
  ASSERT_TRUE(client
                  .call(FrameType::kSize,
                        request_json(size_request(-1.0, false)), -1.0,
                        &reply)
                  .ok());
  wait_accounted(1);

  const JsonValue doc = fetch_stats();
  const JsonValue* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(jnum(counters, "pings"), 2.0);
  EXPECT_EQ(jnum(counters, "health_requests"), 1.0);
  EXPECT_EQ(jnum(counters, "stats_requests"), 1.0);
  EXPECT_EQ(jnum(counters, "requests"), 1.0);
  EXPECT_EQ(counters->object.size(), 15u);
  for (const auto& [field, value] : counters->object)
    EXPECT_EQ(tel.counter("serve." + field), value.number) << field;
}

TEST_F(ServePulseTest, StatsAgreeWithFleetUnderChaos) {
  ServerOptions opt;
  opt.workers = 1;
  opt.max_queue = 1;
  start(opt);
  // Stall the single worker so admission control sheds part of the fleet:
  // a mixed healthy/degraded workload with client-side ground truth.
  util::FaultInjector::instance().arm(util::FaultClass::kServeWorkerStall,
                                      "serve.worker", 200.0);
  std::atomic<int> okay{0}, shed{0}, other{0};
  std::vector<std::thread> fleet;
  for (int i = 0; i < 6; ++i) {
    fleet.emplace_back([&] {
      Client c(client_options(0));  // no retries: observe every shed
      Frame reply;
      const util::Status st =
          c.call(FrameType::kSize, request_json(size_request(-1.0)), -1.0,
                 &reply);
      if (st.ok())
        ++okay;
      else if (reply.error == ErrorCode::kOverloaded)
        ++shed;
      else
        ++other;
    });
  }
  for (auto& t : fleet) t.join();
  util::FaultInjector::instance().disarm();
  ASSERT_GT(shed.load(), 0);
  ASSERT_GT(okay.load(), 0);
  EXPECT_EQ(other.load(), 0);
  wait_accounted(static_cast<size_t>(okay.load() + shed.load()));

  const JsonValue doc = fetch_stats();
  const JsonValue* counters = doc.find("counters");
  EXPECT_EQ(jnum(counters, "shed"), static_cast<double>(shed.load()));
  EXPECT_EQ(jnum(counters, "responses"), static_cast<double>(okay.load()));
  // Sheds are typed kOverloaded failures in the per-code breakdown.
  const JsonValue* by_code = doc.find("errors_by_code");
  ASSERT_NE(by_code, nullptr);
  const JsonValue* overloaded = by_code->find("overloaded");
  ASSERT_NE(overloaded, nullptr);
  EXPECT_EQ(overloaded->number, static_cast<double>(shed.load()));
  // Every request — served or shed — is accounted in the access log.
  EXPECT_EQ(jnum(&doc, "requests_total"),
            static_cast<double>(okay.load() + shed.load()));
  int shed_records = 0;
  for (const JsonValue& rec : doc.find("recent")->array)
    if (rec.find("status")->str == "overloaded") ++shed_records;
  EXPECT_EQ(shed_records, shed.load());
}

TEST_F(ServePulseTest, HealthReportsOkThenDraining) {
  ServerOptions opt;
  opt.workers = 1;
  start(opt);
  Client probe(client_options(0));
  Frame reply;
  ASSERT_TRUE(probe.call(FrameType::kHealth, "", -1.0, &reply).ok());
  JsonValue doc;
  ASSERT_TRUE(util::json_parse(reply.payload, &doc)) << reply.payload;
  EXPECT_EQ(doc.find("status")->str, "ok");
  EXPECT_GE(jnum(&doc, "uptime_s"), 0.0);
  EXPECT_EQ(jnum(&doc, "workers"), 1.0);

  // Occupy the worker, begin the drain, and probe again over the already-
  // open connection: health (and stats) must answer during a drain — an
  // operator diagnosing a stuck shutdown needs them most right then.
  util::FaultInjector::instance().arm(util::FaultClass::kServeWorkerStall,
                                      "serve.worker", 300.0);
  Client busy(client_options(0));
  Frame busy_reply;
  std::thread solver([&] {
    busy.call(FrameType::kSize, request_json(size_request(-1.0)), -1.0,
              &busy_reply);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server_->request_shutdown();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(probe.call(FrameType::kHealth, "", -1.0, &reply).ok());
  JsonValue drain_doc;
  ASSERT_TRUE(util::json_parse(reply.payload, &drain_doc)) << reply.payload;
  EXPECT_EQ(drain_doc.find("status")->str, "draining");
  solver.join();
  server_->wait();
}

TEST_F(ServePulseTest, AccessLogRingWrapsButSinkKeepsEverything) {
  const std::string log_path =
      ::testing::TempDir() + "pulse_access_ring.log";
  std::remove(log_path.c_str());
  ServerOptions opt;
  opt.workers = 1;  // one worker: accounting order == issue order
  opt.access_log_capacity = 2;
  opt.access_log_path = log_path;
  start(opt);

  Client client(client_options());
  Frame reply;
  std::vector<uint64_t> trace_ids;
  for (const double delay : {-1.0, 150.0, 300.0}) {
    ASSERT_TRUE(client
                    .call(FrameType::kSize,
                          request_json(size_request(delay)), -1.0, &reply)
                    .ok());
    trace_ids.push_back(client.last_call().trace_id);
  }
  wait_accounted(3);
  EXPECT_EQ(server_->accounted_requests(), 3u);

  // The stats ring holds only the newest two, oldest first...
  const JsonValue doc = fetch_stats();
  const JsonValue* recent = doc.find("recent");
  ASSERT_NE(recent, nullptr);
  ASSERT_EQ(recent->array.size(), 2u);
  EXPECT_EQ(jnum(&recent->array[0], "trace_id"),
            static_cast<double>(trace_ids[1]));
  EXPECT_EQ(jnum(&recent->array[1], "trace_id"),
            static_cast<double>(trace_ids[2]));

  // ...while the JSONL sink kept all three, one parseable record per line.
  const std::string text = read_file(log_path);
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break;
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  ASSERT_EQ(lines.size(), 3u);
  for (size_t i = 0; i < lines.size(); ++i) {
    JsonValue rec;
    ASSERT_TRUE(util::json_parse(lines[i], &rec)) << lines[i];
    EXPECT_EQ(jnum(&rec, "trace_id"), static_cast<double>(trace_ids[i]));
    EXPECT_EQ(rec.find("op")->str, "size");
    EXPECT_EQ(rec.find("status")->str, "ok");
  }
  std::remove(log_path.c_str());
}

TEST_F(ServePulseTest, SlowRequestLandsInSpoolWithDiagnostics) {
  const std::string spool = ::testing::TempDir() + "pulse_spool";
  for (const std::string& name : list_dir(spool))
    std::remove((spool + "/" + name).c_str());
  ServerOptions opt;
  opt.slow_spool_dir = spool;
  opt.slow_threshold_ms = 0.5;  // any real solve is slower than this
  start(opt);

  Client client(client_options());
  Frame reply;
  ASSERT_TRUE(client
                  .call(FrameType::kSize,
                        request_json(size_request(-1.0, false)), -1.0,
                        &reply)
                  .ok());
  const uint64_t trace_id = client.last_call().trace_id;

  // The capture happens on the worker after the response is sent; poll.
  for (int i = 0; i < 100 && server_->stats().slow_captured == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_GE(server_->stats().slow_captured, 1u);

  const std::vector<std::string> files = list_dir(spool);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0].rfind("slow-", 0), 0u) << files[0];
  EXPECT_EQ(files[0].find(".tmp"), std::string::npos) << files[0];

  JsonValue doc;
  ASSERT_TRUE(util::json_parse(read_file(spool + "/" + files[0]), &doc));
  const JsonValue* record = doc.find("record");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(jnum(record, "trace_id"), static_cast<double>(trace_id));
  EXPECT_GT(jnum(record, "total_us"), 500.0);
  // The original request rides along, replayable as-is...
  const JsonValue* request = doc.find("request");
  ASSERT_NE(request, nullptr);
  EXPECT_EQ(request->find("type")->str, "mux");
  // ...with the solver's introspection diagnostics (rung, iterations,
  // respec trace) for offline diagnosis.
  const JsonValue* diag = doc.find("diagnostics");
  ASSERT_NE(diag, nullptr);
  ASSERT_EQ(diag->kind, JsonValue::Kind::kObject);
  EXPECT_EQ(diag->find("rung")->str, "gp");
  EXPECT_GT(jnum(diag, "newton_iterations"), 0.0);
  ASSERT_NE(diag->find("respec_trace"), nullptr);
  EXPECT_FALSE(diag->find("respec_trace")->array.empty());
  std::remove((spool + "/" + files[0]).c_str());
}

TEST_F(ServePulseTest, OneTraceIdSpansClientQueueWorkerAndSolver) {
  auto& tel = obs::Telemetry::instance();
  tel.enable(true);
  tel.reset();
  ServerOptions opt;
  opt.workers = 1;
  start(opt);

  Client client(client_options());
  Frame reply;
  ASSERT_TRUE(client
                  .call(FrameType::kSize,
                        request_json(size_request(-1.0, false)), -1.0,
                        &reply)
                  .ok());
  const uint64_t trace_id = client.last_call().trace_id;
  ASSERT_NE(trace_id, 0u);

  // In-process client + server share the telemetry buffer, so this is the
  // merged cross-process view: every hop of the request — client call,
  // queue wait, worker handling, GP solve — must carry the one trace id.
  std::set<std::string> tagged;
  for (const auto& ev : tel.spans())
    if (ev.trace_id == trace_id) tagged.insert(ev.name);
  for (const char* span :
       {"client.call", "client.send", "client.wait", "serve.queue",
        "serve.worker", "sizer.size", "gp.solve"}) {
    EXPECT_TRUE(tagged.count(span) == 1) << span << " not tagged with the "
                                         << "request's trace id";
  }

  // And the Chrome export carries the id as an integer arg so the trace
  // viewer can filter the request's timeline.
  JsonValue root;
  ASSERT_TRUE(util::json_parse(tel.chrome_trace_json(), &root));
  size_t exported = 0;
  for (const JsonValue& ev : root.find("traceEvents")->array) {
    const JsonValue* args = ev.find("args");
    const JsonValue* tid =
        args != nullptr ? args->find("trace_id") : nullptr;
    if (tid != nullptr && tid->number == static_cast<double>(trace_id))
      ++exported;
  }
  EXPECT_GE(exported, tagged.size());
}

TEST_F(ServePulseTest, PeriodicFlushKeepsMetricsFileFresh) {
  const std::string metrics = ::testing::TempDir() + "pulse_metrics.json";
  std::remove(metrics.c_str());
  obs::Telemetry::instance().enable(true);
  ServerOptions opt;
  opt.metrics_out = metrics;
  opt.metrics_flush_ms = 50.0;
  start(opt);

  Client client(client_options());
  Frame reply;
  ASSERT_TRUE(client.call(FrameType::kPing, "", -1.0, &reply).ok());
  for (int i = 0; i < 100 && read_file(metrics).empty(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  JsonValue doc;
  ASSERT_TRUE(util::json_parse(read_file(metrics), &doc))
      << "no valid metrics flushed while the daemon was running";

  // Remove the file: the periodic flush must re-create it — proof the
  // writes keep happening while serving, not only at drain.
  std::remove(metrics.c_str());
  for (int i = 0; i < 100 && read_file(metrics).empty(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(util::json_parse(read_file(metrics), &doc));

  server_->request_shutdown();
  server_->wait();
  // The final drain-time flush still happens and parses.
  EXPECT_TRUE(util::json_parse(read_file(metrics), &doc));
  std::remove(metrics.c_str());
}

TEST_F(ServePulseTest, CallStatsBreakDownTheRequest) {
  start();
  Client client(client_options());
  Frame reply;
  ASSERT_TRUE(client
                  .call(FrameType::kSize,
                        request_json(size_request(-1.0, false)), -1.0,
                        &reply)
                  .ok());
  // Copy: last_call() is overwritten by the next call on this client.
  const CallStats cs = client.last_call();
  EXPECT_NE(cs.trace_id, 0u);
  EXPECT_EQ(cs.attempts, 1);
  EXPECT_GT(cs.total_ms, 0.0);
  EXPECT_GT(cs.wait_ms, 0.0);
  EXPECT_GT(cs.connect_ms, 0.0);  // first call dials the socket
  EXPECT_LE(cs.wait_ms, cs.total_ms);
  // The server's pulse object reported its side of the ledger. The solve
  // can start before send_all returns (the server reads the frame while
  // the client is still in the send), so it lies within the send and the
  // wait together, not within the wait alone.
  EXPECT_GT(cs.server_solve_us, 0.0);
  EXPECT_GE(cs.server_queue_us, 0.0);
  EXPECT_GE(cs.server_decode_us, 0.0);
  EXPECT_LT(cs.server_solve_us / 1000.0, cs.send_ms + cs.wait_ms);

  // A ping carries no pulse: the server-side fields stay "absent".
  ASSERT_TRUE(client.call(FrameType::kPing, "", -1.0, &reply).ok());
  const CallStats& ping = client.last_call();
  EXPECT_LT(ping.server_solve_us, 0.0);
  EXPECT_DOUBLE_EQ(ping.connect_ms, 0.0);  // pooled connection: no dial
  // Each call gets a fresh trace id.
  EXPECT_NE(ping.trace_id, cs.trace_id);
  EXPECT_NE(ping.trace_id, 0u);
}

TEST_F(ServePulseTest, StatsAnswerOnV1ConnectionsAndBadVersionIsTyped) {
  ServerOptions opt;
  opt.unix_path = ::testing::TempDir() +
                  util::strfmt("smartd_pulse_v1_%d.sock",
                               static_cast<int>(::getpid()));
  start(opt);

  // A ping in the retired version-1 format, built by hand: the 32 header
  // bytes the versions share up to the deadline, then the checksum over
  // them (no trace id), 40 bytes in all.
  Frame ping;
  ping.type = FrameType::kPing;
  std::string v1 = encode_frame(ping).substr(0, 32);
  v1[4] = 1;
  const uint64_t sum = util::fnv1a(v1.data(), v1.size());
  for (int i = 0; i < 8; ++i)
    v1.push_back(static_cast<char>((sum >> (8 * i)) & 0xff));

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  // Bounded reads: a server that accepted the frame would keep the
  // connection open, and the test must fail rather than hang.
  timeval tv{};
  tv.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, opt.unix_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ASSERT_EQ(::send(fd, v1.data(), v1.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(v1.size()));
  std::string rbuf;
  Frame reply;
  size_t consumed = 0;
  std::string err;
  DecodeStatus st = DecodeStatus::kNeedMore;
  char buf[512];
  while (st == DecodeStatus::kNeedMore) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    rbuf.append(buf, static_cast<size_t>(n));
    st = decode_frame(rbuf.data(), rbuf.size(), &reply, &consumed, &err);
  }
  ::close(fd);
  ASSERT_EQ(st, DecodeStatus::kOk) << err;
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.error, ErrorCode::kUnsupportedVersion);

  // The rejected connection does not poison the daemon: a fresh client
  // still gets stats, and they account the rejection.
  ClientOptions copt = client_options();
  copt.unix_path = opt.unix_path;
  Client client(copt);
  Frame stats;
  const util::Status call = client.call(FrameType::kStats, "", -1.0, &stats);
  ASSERT_TRUE(call.ok()) << call.to_string();
  JsonValue doc;
  ASSERT_TRUE(util::json_parse(stats.payload, &doc)) << stats.payload;
  EXPECT_EQ(jnum(&doc, "protocol_version"),
            static_cast<double>(kProtocolVersion));
  EXPECT_EQ(doc.find("draining")->boolean, false);
  EXPECT_EQ(jnum(doc.find("counters"), "bad_frames"), 1.0);
  EXPECT_EQ(jnum(doc.find("errors_by_code"), "unsupported_version"), 1.0);
}

}  // namespace
}  // namespace smart::serve
