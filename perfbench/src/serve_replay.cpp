// serve_replay: the serving path. An in-process serve::Server (2 workers,
// cache on, Unix socket) takes closed-loop load from 2 serve::Client
// threads replaying a seeded trace of `size` requests over small macros:
// cold misses, near neighbours of completed requests (warm-started
// solves) and exact repeats (cache hits).
//
// Cache outcomes are deterministic by construction: each client owns its
// own macro buckets, sends a repeat or neighbour only after its source
// completed, and the cache is cleared before every pass. Cold loads are
// spaced 1.6x apart and neighbours sit within 10% of their source, so a
// cold request is never within the cache's 0.25 neighbour radius of an
// earlier entry, and a neighbour always is.

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <map>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "core/baseline.h"
#include "layers.h"
#include "par/par.h"
#include "refsim/rc_timer.h"
#include "serve/cache.h"
#include "serve/client.h"
#include "serve/request.h"
#include "serve/server.h"
#include "util/json.h"
#include "util/strfmt.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace sc = smart::core;
namespace ss = smart::serve;

struct Bucket {
  const char* type;
  const char* topology;
  int n;
  double bits;  ///< < 0 = absent
  const char* cost;
};

struct Config {
  int workers = 2;
  /// Buckets owned by each client (one entry per client).
  std::vector<std::vector<Bucket>> clients;
  int anchors = 5;  ///< cold loads per bucket: 8 fF x 1.6^k
};

Config replay_config() {
  Config c;
  c.clients = {
      {{"mux", "strong_pass", 4, 8, "width"},
       {"decoder", "predecode", 3, -1, "width"},
       {"zero_detect", "static_tree", 16, -1, "width"},
       {"incrementor", "ks_prefix", 3, -1, "width"}},
      {{"mux", "encoded2", 2, 8, "width"},
       {"mux", "domino_unsplit", 4, 8, "power"},
       {"zero_detect", "static_tree", 32, -1, "width"},
       {"decrementor", "ks_prefix", 3, -1, "width"}},
  };
  return c;
}

Config probe_config() {
  Config c;
  c.workers = 1;
  c.clients = {{{"zero_detect", "static_tree", 8, -1, "width"}}};
  c.anchors = 3;
  return c;
}

enum class Kind { kCold, kNear, kHit };

struct Item {
  ss::Request req;  ///< as the server parses it
  std::string payload;
  Kind kind = Kind::kCold;
  std::string label;
};

ss::Request parsed(const ss::Request& r) {
  ss::Request out;
  if (!ss::parse_request(ss::request_json(r), &out).ok())
    throw std::runtime_error("request does not round-trip");
  return out;
}

/// One client's trace: every cold request in seeded order, one neighbour of
/// each inserted after it, and one exact repeat per cold load inserted
/// after its source, all at seeded positions. Neighbours sit 5% above or
/// below their cold load, and the repeat is of the cold request or of its
/// neighbour, alternating over the loads, so every seed sends the same
/// requests and only their order changes.
std::vector<Item> make_trace(const Config& cfg, size_t client, Rng& rng) {
  std::vector<Item> colds;
  std::vector<int> anchor;  // load index k of each cold request
  for (const Bucket& b : cfg.clients[client])
    for (int k = 0; k < cfg.anchors; ++k) {
      Item it;
      it.req.type = b.type;
      it.req.topology = b.topology;
      it.req.n = b.n;
      it.req.bits = b.bits;
      it.req.cost = b.cost;
      it.req.load_ff = 8.0 * std::pow(1.6, k);
      colds.push_back(std::move(it));
      anchor.push_back(k);
    }
  std::vector<size_t> order(colds.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  std::vector<Item> seq;
  for (const size_t i : order) seq.push_back(colds[i]);
  auto insert_after = [&](const ss::Request& source, Item it) {
    const uint64_t fp = ss::request_fingerprint(source);
    size_t pos = 0;
    while (seq[pos].kind == Kind::kHit ||
           ss::request_fingerprint(seq[pos].req) != fp)
      ++pos;
    const size_t at = pos + 1 + rng.below(seq.size() - pos);
    seq.insert(seq.begin() + static_cast<long>(at), std::move(it));
  };
  std::vector<Item> repeats;
  for (const size_t i : order) {
    const bool even = anchor[i] % 2 == 0;
    Item near = colds[i];
    near.req.load_ff *= even ? 1.05 : 0.95;
    near.kind = Kind::kNear;
    Item hit = even ? colds[i] : near;
    hit.kind = Kind::kHit;
    repeats.push_back(std::move(hit));
    insert_after(colds[i].req, std::move(near));
  }
  for (auto& hit : repeats) {
    const ss::Request source = hit.req;
    insert_after(source, std::move(hit));
  }
  for (auto& it : seq) {
    it.req = parsed(it.req);
    it.payload = ss::request_json(it.req);
    it.label = smart::util::strfmt(
        "client %zu %s load %.3f %s", client,
        ss::macro_bucket(it.req).c_str(), it.req.load_ff,
        it.kind == Kind::kCold ? "cold"
                               : (it.kind == Kind::kNear ? "near" : "repeat"));
  }
  return seq;
}

/// What one reply said, parsed on the client thread.
struct Reply {
  bool ok = false;
  std::string error;
  std::string cache;  ///< "hit" | "warm" | "miss"
  std::string rung;
  std::vector<double> widths;
  int newton = 0;
  double latency_ms = 0.0;
  ss::CallStats call;
};

/// The same request sized directly, the way the size handler does it.
struct Reference {
  std::string cache;
  std::vector<double> widths;
  int newton = 0;
  double delay_target = 0.0;
  double pre_target = 0.0;
  bool ok = false;
  sc::SizerOptions options;  ///< cold options, for the layer replay
};

sc::CostMetric cost_metric(const std::string& cost) {
  if (cost == "power") return sc::CostMetric::kPower;
  if (cost == "clock") return sc::CostMetric::kClockLoad;
  return sc::CostMetric::kTotalWidth;
}

class ServeReplay : public Workload {
 public:
  ServeReplay(const RunOptions& opt, Tracer& tracer, Config cfg,
              const char* tag)
      : opt_(opt), tracer_(tracer), cfg_(std::move(cfg)) {
    for (size_t c = 0; c < cfg_.clients.size(); ++c) {
      Rng rng(opt.seed * 0x9E3779B97F4A7C15ULL + 0x5e7e + c);
      traces_.push_back(make_trace(cfg_, c, rng));
    }
    static std::atomic<int> instances{0};
    socket_ = smart::util::strfmt("%s/smartd-%d-%s%d.sock",
                                  opt.work_dir.c_str(),
                                  static_cast<int>(::getpid()), tag,
                                  instances++);
  }

  void setup() override {
    env_ = make_env(tracer_);
    ss::ServeContext ctx;
    ctx.db = &env_->db;
    ctx.tech = env_->tech;
    ctx.lib = &env_->lib;
    ss::ServerOptions sopt;
    sopt.unix_path = socket_;
    sopt.workers = cfg_.workers;
    sopt.cache_capacity = 256;
    {
      Span span(tracer_, "serve.start");
      server_ = std::make_unique<ss::Server>(ctx, sopt);
      const auto st = server_->start();
      if (!st.ok())
        throw std::runtime_error("server start: " + st.to_string());
    }
    Span span(tracer_, "serve.connect");
    for (size_t c = 0; c < cfg_.clients.size(); ++c) {
      ss::ClientOptions copt;
      copt.unix_path = socket_;
      copt.io_timeout_ms = 120000.0;
      copt.jitter_seed = opt_.seed + c;
      clients_.push_back(std::make_unique<ss::Client>(copt));
      ss::Frame pong;
      const auto st =
          clients_.back()->call(ss::FrameType::kPing, "", -1.0, &pong);
      if (!st.ok()) throw std::runtime_error("ping: " + st.to_string());
    }
  }

  void run(double seconds, WorkloadResult& out,
           const std::function<void()>& between_passes) override {
    out.pool_threads = smart::par::thread_count();
    out.server_workers = cfg_.workers;
    out.clients = static_cast<int>(clients_.size());
    for (const auto& trace : traces_)
      for (const auto& it : trace) out.plan.push_back(it.label);

    const uint64_t shed0 = server_->stats().shed;
    const double busy0 = busy_us();
    int retries0 = 0;
    for (const auto& c : clients_) retries0 += c->retries();
    replies_.clear();  // [pass][client][item]
    double timed_ms = 0.0;
    std::vector<ss::CacheStats> cache_deltas;
    do {
      server_->cache()->clear();
      const ss::CacheStats before = server_->cache()->stats();
      std::vector<std::vector<Reply>> pass(clients_.size());
      const int64_t base_id = static_cast<int64_t>(replies_.size()) * 100000;
      const auto p0 = Clock::now();
      std::vector<std::thread> threads;
      for (size_t c = 0; c < clients_.size(); ++c)
        threads.emplace_back([this, c, base_id, &pass] {
          replay_trace(c, base_id + static_cast<int64_t>(c) * 10000, pass[c]);
        });
      for (auto& t : threads) t.join();
      timed_ms += ms_between(p0, Clock::now());
      const ss::CacheStats after = server_->cache()->stats();
      ss::CacheStats d;
      d.hits = after.hits - before.hits;
      d.near_hits = after.near_hits - before.near_hits;
      d.misses = after.misses - before.misses;
      cache_deltas.push_back(d);
      replies_.push_back(std::move(pass));
      between_passes();
    } while (more_passes(timed_ms, static_cast<int>(replies_.size()),
                         seconds));
    out.passes = static_cast<int>(replies_.size());
    out.timed_wall_s = timed_ms / 1000.0;
    shed_ = static_cast<double>(server_->stats().shed - shed0);
    worker_util_ = (busy_us() - busy0) / (timed_ms * 1000.0 * cfg_.workers);
    int retries1 = 0;
    for (const auto& c : clients_) retries1 += c->retries();
    retries_ = retries1 - retries0;
    encode_ms_ = stage_p50("encode_ms");

    for (const auto& pass : replies_)
      for (const auto& client : pass)
        for (const auto& r : client) {
          ++out.attempted;
          if (r.ok) ++out.sizings;
          out.latencies_ms.push_back(r.latency_ms);
        }
    verify(cache_deltas, out);
    out.samples["latency_p50_ms"] = out.latencies_ms.size();
  }

  void replay(WorkloadResult& out) override {
    LayerTally tally;
    for (const auto& r : sizer_results_) tally.add_sizer(r);
    int64_t id = 0;
    for (size_t c = 0; c < traces_.size(); ++c)
      for (size_t i = 0; i < traces_[c].size(); ++i, ++id) {
        if (refs_[c][i].cache == "hit") continue;
        tally.add(replay_iteration(*env_, netlist(traces_[c][i].req),
                                   refs_[c][i].options, tracer_, id));
      }
    tally.emit(tracer_, out);
    emit_serve_layers(out);
  }

  /// The serve.* per-layer metrics of the last run().
  void emit_serve_layers(WorkloadResult& out) const {
    auto put = [&](const char* name, double v, const char* unit) {
      out.layer[name] = {v, unit};
    };
    std::vector<double> queue, decode, wait, solve_warm, solve_cold;
    for (const auto& pass : replies_)
      for (const auto& client : pass)
        for (const auto& r : client) {
          if (r.call.server_queue_us >= 0.0)
            queue.push_back(r.call.server_queue_us / 1000.0);
          if (r.call.server_decode_us >= 0.0)
            decode.push_back(r.call.server_decode_us / 1000.0);
          wait.push_back(r.call.wait_ms);
          if (r.call.server_solve_us < 0.0) continue;
          if (r.cache == "warm")
            solve_warm.push_back(r.call.server_solve_us / 1000.0);
          if (r.cache == "miss")
            solve_cold.push_back(r.call.server_solve_us / 1000.0);
        }
    put("serve.queue_ms", median(queue), "ms");
    put("serve.decode_ms", median(decode), "ms");
    put("serve.encode_ms", encode_ms_, "ms");
    put("serve.wait_ms", median(wait), "ms");
    put("serve.solve_ms_warm", median(solve_warm), "ms");
    put("serve.solve_ms_cold", median(solve_cold), "ms");
    out.samples["serve.queue_ms"] = queue.size();
    out.samples["serve.decode_ms"] = decode.size();
    out.samples["serve.wait_ms"] = wait.size();
    out.samples["serve.solve_ms_warm"] = solve_warm.size();
    out.samples["serve.solve_ms_cold"] = solve_cold.size();
    put("serve.cache_hit", pass_count("hit"), "count");
    put("serve.cache_near", pass_count("warm"), "count");
    put("serve.cache_miss", pass_count("miss"), "count");
    put("serve.shed", shed_, "count");
    put("serve.retries", static_cast<double>(retries_), "count");
    put("serve.worker_util", worker_util_, "ratio");
    double newton_warm = 0.0, newton_cold = 0.0;
    for (const auto& client : replies_.front())
      for (const auto& r : client) {
        if (r.cache == "warm") newton_warm += r.newton;
        if (r.cache == "miss") newton_cold += r.newton;
      }
    put("gp.newton_iters_warm", newton_warm, "count");
    put("gp.newton_iters_cold", newton_cold, "count");
  }

 private:
  void replay_trace(size_t c, int64_t base_id, std::vector<Reply>& out) {
    ss::Client& client = *clients_[c];
    for (size_t i = 0; i < traces_[c].size(); ++i) {
      Reply r;
      ss::Frame frame;
      const auto r0 = Clock::now();
      smart::util::Status st;
      {
        Span request(tracer_, "request", base_id + static_cast<int64_t>(i));
        Span call(tracer_, "serve.client.call");
        st = client.call(ss::FrameType::kSize, traces_[c][i].payload, -1.0,
                         &frame);
      }
      r.latency_ms = ms_between(r0, Clock::now());
      r.call = client.last_call();
      smart::util::JsonValue doc;
      if (!st.ok()) {
        r.error = st.to_string();
      } else if (!smart::util::json_parse(frame.payload, &doc)) {
        r.error = "unparsable reply";
      } else {
        r.ok = true;
        auto str = [&](const char* key) {
          const auto* v = doc.find(key);
          return v != nullptr ? v->str : std::string();
        };
        r.cache = str("cache");
        r.rung = str("rung");
        if (const auto* v = doc.find("newton_iterations"))
          r.newton = static_cast<int>(v->number);
        if (const auto* v = doc.find("widths"))
          for (const auto& w : v->array) r.widths.push_back(w.number);
      }
      out.push_back(std::move(r));
    }
  }

  double busy_us() const {
    smart::util::JsonValue doc;
    if (!smart::util::json_parse(server_->stats_json(), &doc)) return 0.0;
    const auto* u = doc.find("utilization");
    const auto* b = u != nullptr ? u->find("busy_us") : nullptr;
    return b != nullptr ? b->number : 0.0;
  }

  double stage_p50(const char* stage) const {
    smart::util::JsonValue doc;
    if (!smart::util::json_parse(server_->stats_json(), &doc)) return 0.0;
    const auto* s = doc.find("stages");
    const auto* h = s != nullptr ? s->find(stage) : nullptr;
    const auto* p = h != nullptr ? h->find("p50") : nullptr;
    return p != nullptr ? p->number : 0.0;
  }

  double pass_count(const char* cache) const {
    double n = 0.0;
    for (const auto& client : replies_.front())
      for (const auto& r : client) n += r.cache == cache ? 1.0 : 0.0;
    return n;
  }

  smart::netlist::Netlist netlist(const ss::Request& q) {
    return generate(*env_, q.type, q.topology, ss::to_spec(q), tracer_);
  }

  /// Sizes one client's trace directly, mirroring the size handler with a
  /// benchmark-side ResultCache, so every reply has a reference.
  std::vector<Reference> reference(size_t c) {
    std::vector<Reference> refs;
    ss::ResultCache mirror(256);
    std::map<uint64_t, std::pair<double, double>> targets;  // fp -> targets
    const sc::Sizer sizer(*env_->tech, env_->lib);
    for (const Item& it : traces_[c]) {
      const ss::Request& q = it.req;
      Reference ref;
      const std::string bucket = ss::macro_bucket(q);
      const uint64_t fp = ss::request_fingerprint(q);
      const auto params = ss::constraint_params(q);
      ss::CachedResult hit;
      if (mirror.lookup_exact(bucket, fp, &hit)) {
        ref.cache = "hit";
        ref.widths = hit.widths;
        ref.newton = hit.newton_iterations;
        ref.ok = hit.rung == "gp";
        std::tie(ref.delay_target, ref.pre_target) = targets[fp];
        refs.push_back(std::move(ref));
        continue;
      }
      const auto nl = netlist(q);
      sc::SizerOptions o;
      {
        smart::netlist::Sizing base;
        {
          Span span(tracer_, "baseline.size");
          base = sc::BaselineSizer(*env_->tech).size(nl);
        }
        const auto rep = smart::refsim::RcTimer(*env_->tech).analyze(nl, base);
        o.delay_spec_ps = rep.worst_delay;
        if (rep.worst_precharge > 0.0)
          o.precharge_spec_ps = rep.worst_precharge;
      }
      o.cost = cost_metric(q.cost);
      ref.options = o;
      ref.delay_target = o.delay_spec_ps;
      ref.pre_target =
          o.precharge_spec_ps > 0.0 ? o.precharge_spec_ps : o.delay_spec_ps;
      targets[fp] = {ref.delay_target, ref.pre_target};
      ss::CachedResult neighbor;
      const bool warm = mirror.lookup_near(bucket, params, 0.25, &neighbor);
      if (warm) o.warm_start = std::move(neighbor.solution_x);
      ref.cache = warm ? "warm" : "miss";
      sc::SizerResult res;
      {
        Span span(tracer_, "sizer.size");
        res = sizer.size(nl, o);
      }
      sizer_results_.push_back(res);
      ref.ok = res.ok && res.rung == sc::SizingRung::kGp;
      ref.widths = res.sizing;
      ref.newton = res.gp_newton_iterations;
      if (res.ok) {
        ss::CachedResult value;
        value.solution_x = res.solution_x;
        value.widths = res.sizing;
        value.measured_delay_ps = res.measured_delay_ps;
        value.measured_precharge_ps = res.measured_precharge_ps;
        value.total_width_um = res.total_width_um;
        value.newton_iterations = res.gp_newton_iterations;
        value.respec_iterations = res.respec_iterations;
        value.rung = sc::to_string(res.rung);
        mirror.insert(bucket, fp, params, value);
      }
      refs.push_back(std::move(ref));
    }
    return refs;
  }

  /// Checks the first pass against direct sizing and re-measurement, and
  /// every later pass against the first.
  void verify(const std::vector<ss::CacheStats>& cache_deltas,
              WorkloadResult& out) {
    refs_.clear();
    sizer_results_.clear();
    double newton = 0.0;
    const auto& first = replies_.front();
    std::vector<std::vector<bool>> good(traces_.size());
    for (size_t c = 0; c < traces_.size(); ++c) {
      refs_.push_back(reference(c));
      for (size_t i = 0; i < traces_[c].size(); ++i) {
        const Reply& r = first[c][i];
        const Reference& ref = refs_[c][i];
        const std::string& what = traces_[c][i].label;
        std::string why;
        if (!r.ok) {
          why = "request failed: " + r.error;
        } else if (!ref.ok) {
          why = "direct sizing failed";
        } else if (r.cache != ref.cache) {
          why = "cache " + r.cache + ", expected " + ref.cache;
        } else if (r.newton != ref.newton) {
          why = "Newton iterations differ from direct sizing";
        } else if (r.widths.size() != ref.widths.size()) {
          why = "width count differs from direct sizing";
        } else {
          for (size_t k = 0; k < r.widths.size() && why.empty(); ++k)
            if (std::fabs(r.widths[k] - ref.widths[k]) >
                1e-5 * std::max(std::fabs(ref.widths[k]), 1e-3))
              why = "widths differ from direct sizing";
        }
        const auto nl = netlist(traces_[c][i].req);
        if (why.empty() && r.rung != "gp") why = "rung " + r.rung;
        if (why.empty())
          check_sizing(*env_, nl, r.widths, sc::SizingRung::kGp,
                       ref.delay_target, ref.pre_target, &why);
        good[c].push_back(why.empty());
        if (!why.empty()) out.fail(what + ": " + why);
        if (r.ok && r.widths.size() == nl.label_count()) {
          const auto stats = nl.device_stats(r.widths);
          out.total_width_um += stats.total_width;
          clock_width_ += stats.clock_gate_width;
        }
        if (r.cache != "hit") newton += r.newton;
      }
    }
    for (const auto& pass : replies_)
      for (size_t c = 0; c < pass.size(); ++c)
        for (size_t i = 0; i < pass[c].size(); ++i) {
          const Reply& r = pass[c][i];
          const bool same = r.ok && r.cache == first[c][i].cache &&
                            r.widths == first[c][i].widths &&
                            r.newton == first[c][i].newton;
          if (!same)
            out.fail(traces_[c][i].label + ": differs from the first pass");
          if (same && good[c][i]) ++out.ok;
        }
    const double hits = pass_count("hit"), near = pass_count("warm"),
                 cold = pass_count("miss");
    for (const auto& d : cache_deltas)
      if (static_cast<double>(d.hits) != hits ||
          static_cast<double>(d.near_hits) != near ||
          static_cast<double>(d.misses) != near + cold)
        out.fail("cache statistics disagree with the replies");
    out.clock_width_um = clock_width_;
    out.deterministic["serve.total_width_um"] = out.total_width_um;
    out.deterministic["serve.clock_width_um"] = clock_width_;
    out.deterministic["serve.newton_iters"] = newton;
    out.deterministic["serve.cache_hit"] = hits;
    out.deterministic["serve.cache_near"] = near;
    out.deterministic["serve.cache_miss"] = cold;
  }

  RunOptions opt_;
  Tracer& tracer_;
  Config cfg_;
  std::string socket_;
  std::vector<std::vector<Item>> traces_;  ///< per client
  std::unique_ptr<Env> env_;
  std::unique_ptr<ss::Server> server_;
  std::vector<std::unique_ptr<ss::Client>> clients_;
  std::vector<std::vector<std::vector<Reply>>> replies_;  ///< pass/client/item
  std::vector<std::vector<Reference>> refs_;              ///< client/item
  std::vector<sc::SizerResult> sizer_results_;
  double clock_width_ = 0.0;
  double shed_ = 0.0;
  double worker_util_ = 0.0;
  double encode_ms_ = 0.0;
  int retries_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_replay(const RunOptions& opt,
                                            Tracer& tracer) {
  return std::make_unique<ServeReplay>(opt, tracer, replay_config(), "replay");
}

void serve_probe(const RunOptions& opt, Tracer& tracer, WorkloadResult& out) {
  ServeReplay probe(opt, tracer, probe_config(), "probe");
  probe.setup();
  WorkloadResult r;
  probe.run(0.0, r, [] {});
  for (const auto& f : r.failures) out.fail("serve probe: " + f);
  probe.emit_serve_layers(out);
}

}  // namespace perfbench
