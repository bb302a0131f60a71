// serve_mutants_k16: bug-hunt traffic through an in-process gfa_serve. One
// client, one job outstanding, pool size 1, in-memory cache, certification
// on. Each pass sends seeded k=16 mutants plus two equivalent designs; twelve
// of them are sent a second time, at a seeded later position, as cache hits.

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "abstraction/equivalence.h"
#include "abstraction/rato.h"
#include "certify/certify.h"
#include "circuit/karatsuba.h"
#include "circuit/mastrovito.h"
#include "circuit/montgomery.h"
#include "circuit/mutate.h"
#include "circuit/parser.h"
#include "circuit/sim.h"
#include "engine/registry.h"
#include "engine/report.h"
#include "perfbench.h"
#include "service/client.h"
#include "service/service.h"
#include "util/exec_control.h"
#include "worker/checkpoint.h"

namespace perfbench {

using namespace gfa;

namespace {

constexpr unsigned kServeK = 16;
/// Per-job time limit. The mutant shapes a pass keeps finish in well under
/// half of it (at most 1.5 s in-process); most of those left out never
/// finish, and take more than twice as long when they do.
constexpr double kJobLimitS = 4.0;
/// Safety net on a reply: past it the service is considered dead.
constexpr double kReceiveTimeoutS = 60.0;
/// Passes after which peak RSS is read, fewer than any run holds: later
/// passes add only the allocator's reuse of freed memory, which depends on
/// the run length.
constexpr std::size_t kRssPasses = 4;
/// Chain term budget of the set-up's classification; the mutant shapes kept
/// stay far below it, and it cuts short the chains of those left out.
constexpr std::size_t kClassifyMaxTerms = 2048;
/// Seed of the general-lift mutants, the same in every pass and run.
constexpr std::uint64_t kFixedStream = 0x6E4E12A1;

/// The chain remainder's shape, which predicts the lift's path and cost.
enum class Shape {
  kBilinear,    // no term wider than two bits: the bilinear fast path
  kCubic,       // terms of three bits at most: the general lift
  kOneQuartic,  // one four-bit term among bilinear ones: the general lift
  kWider,       // anything else that fits the classification budget
  kOverBudget,  // the chain outgrew kClassifyMaxTerms
};

const char* to_string(Shape s) {
  switch (s) {
    case Shape::kBilinear: return "bilinear";
    case Shape::kCubic: return "cubic";
    case Shape::kOneQuartic: return "one_quartic";
    case Shape::kWider: return "wider";
    case Shape::kOverBudget: return "over_budget";
  }
  return "?";
}

struct ServeImpl {
  std::string kind;
  std::string path;
  Netlist netlist;
  bool equivalent = false;
  bool repeated = false;  // sent a second time, which is a cache hit
};

struct Pass {
  std::vector<ServeImpl> impls;
  /// Indices into impls, the repeated ones twice; a repeat sits after the
  /// first send.
  std::vector<std::size_t> order;
};

struct ServeSetup {
  Netlist spec;
  std::string spec_path;
};

/// Where the next pass's inputs come from.
struct PassStream {
  Netlist montgomery, karatsuba;
  std::uint64_t spec_hash;
  Rng rng;
  std::size_t made = 0;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  if (!in) throw std::runtime_error("cannot read " + path);
  return out.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// The shape of a mutant's remainder, from the chain alone.
Shape remainder_shape(const Netlist& netlist, const Gf2k& field) {
  ExtractionStats stats;
  try {
    const ShardedRewriter::TermMap remainder = chain_remainder(
        netlist, field, rato_net_order(netlist), kClassifyMaxTerms, stats);
    std::size_t wide = 0, widest = 0;
    for (const auto& [mono, coeff] : remainder) {
      if (mono.size() > 2) ++wide;
      widest = std::max(widest, mono.size());
    }
    if (widest <= 2) return Shape::kBilinear;
    if (widest == 3) return Shape::kCubic;
    if (wide == 1 && widest == 4) return Shape::kOneQuartic;
    return Shape::kWider;
  } catch (const RewriteBudgetExceeded&) {
    return Shape::kOverBudget;
  }
}

/// One pass: the seeded mutants by quota, the two equivalent designs in a
/// pass-specific gate-line order, and the send order. The quotas follow the
/// shares of the unfiltered mutant stream (`--survey`, baseline.md) over the
/// shapes that decide well inside the job limit; a shape's quota is filled
/// by drawing until that many of it turn up, so within a shape the mutants
/// are the stream's own. Left out: Montgomery remainders past the
/// classification budget (most never decide, and a failed job is not
/// allowed in a benchmark run) and Mastrovito remainders of other shapes
/// (a mix of quick jobs, jobs within a factor of two of the limit and jobs
/// that never decide, which the chain cannot tell apart).
///
/// About a third of the sends are repeats: with half of them, the median job
/// would sit on the gap between cache hits and misses instead of inside the
/// misses. The general-lift mutants, ten to a hundred times slower than the
/// rest, are sent once, so job_s_p90 stays inside their misses. They are
/// the same in every pass and for every seed, drawn from a fixed stream
/// (kFixedStream): their cost varies from
/// mutant to mutant by a factor of ten, and seeded draws of them moved
/// jobs_per_s by 14% between seeds; a new draw per pass made passes differ
/// by as much, and the blocks' rates with them. The server is fresh each
/// pass, so content only has to be new within a pass.
Pass make_pass(const Netlist& spec, PassStream& stream, const Gf2k& field,
               const std::string& dir) {
  struct Quota {
    const Netlist* golden;
    const char* kind;
    Shape shape;
    int count;
    int repeated;  // the first `repeated` found are sent twice
    Rng* draws;
  };
  Rng fixed_rng(kFixedStream);
  std::set<std::uint64_t> seen = {stream.spec_hash};  // content hashes
  const Quota quotas[] = {
      {&stream.montgomery, "montgomery mutant", Shape::kBilinear, 11, 6,
       &stream.rng},
      {&stream.montgomery, "montgomery mutant, cubic", Shape::kCubic, 3, 0,
       &fixed_rng},
      {&spec, "mastrovito mutant", Shape::kBilinear, 10, 4, &stream.rng},
      {&spec, "mastrovito mutant, cubic", Shape::kCubic, 2, 0,
       &fixed_rng},
      {&spec, "mastrovito mutant, one quartic term", Shape::kOneQuartic, 2, 0,
       &fixed_rng}};
  const std::size_t index = stream.made++;
  Pass pass;
  auto path = [&] {
    return dir + "/p" + std::to_string(index) + "_" +
           std::to_string(pass.impls.size()) + ".nl";
  };
  for (const Quota& q : quotas) {
    for (int found = 0, tries = 0; found < q.count; ++tries) {
      if (tries == 5000)
        throw std::runtime_error(std::string("too few candidates: ") + q.kind);
      const std::uint64_t mutant_seed = q.draws->next();
      Netlist bug = inject_random_bug(*q.golden, mutant_seed);
      if (!seen.insert(worker::netlist_content_hash(bug)).second)
        continue;
      // Some mutants are genuinely equivalent (an xor turned or whose inputs
      // are never both 1); only those the simulator separates are kept.
      if (!certify::find_simulation_witness(spec, bug, field, 256, mutant_seed))
        continue;
      if (remainder_shape(bug, field) != q.shape) continue;
      ServeImpl impl{q.kind, path(), std::move(bug), false, found < q.repeated};
      write_file(impl.path, write_netlist(impl.netlist));
      pass.impls.push_back(std::move(impl));
      ++found;
    }
  }
  const std::pair<const Netlist*, const char*> equivalents[] = {
      {&stream.montgomery, "montgomery (equivalent)"},
      {&stream.karatsuba, "karatsuba (equivalent)"}};
  for (const auto& [golden, kind] : equivalents) {
    const std::string text = shuffled_netlist_text(*golden, stream.rng.next());
    Result<Netlist> nl = try_parse_netlist(text);
    if (!nl.ok() ||
        !seen.insert(worker::netlist_content_hash(*nl)).second)
      throw std::runtime_error("equivalent design did not get a fresh order");
    ServeImpl impl{kind, path(), std::move(*nl), true, true};
    write_file(impl.path, text);
    pass.impls.push_back(std::move(impl));
  }

  pass.order.resize(pass.impls.size());
  std::iota(pass.order.begin(), pass.order.end(), 0);
  for (std::size_t i = pass.order.size(); i > 1; --i)
    std::swap(pass.order[i - 1], pass.order[stream.rng.below(i)]);
  const std::vector<std::size_t> firsts = pass.order;
  for (const std::size_t x : firsts) {
    if (!pass.impls[x].repeated) continue;
    const auto at = std::find(pass.order.begin(), pass.order.end(), x);
    const std::size_t pos = static_cast<std::size_t>(at - pass.order.begin());
    const std::size_t gap = stream.rng.below(pass.order.size() - pos);
    pass.order.insert(pass.order.begin() + static_cast<long>(pos + 1 + gap), x);
  }
  return pass;
}

ServeSetup make_spec(const Options& options, const Gf2k& field) {
  ServeSetup s;
  s.spec = make_mastrovito_multiplier(field);
  s.spec_path = options.workdir + "/spec.nl";
  write_file(s.spec_path, write_netlist(s.spec));
  return s;
}

PassStream pass_stream(const Options& options, const ServeSetup& setup,
                       const Gf2k& field) {
  return PassStream{make_montgomery_multiplier_flat(field),
                    make_karatsuba_multiplier(field),
                    worker::netlist_content_hash(setup.spec), Rng(options.seed)};
}

void remove_files(const Pass& pass) {
  for (const ServeImpl& impl : pass.impls) std::remove(impl.path.c_str());
}

/// An in-process service::Server, the thread running its accept loop, and
/// one connected client.
class InProcessServer {
 public:
  explicit InProcessServer(std::string socket_path)
      : socket_path_(std::move(socket_path)) {
    service::ServerOptions o;
    o.socket_path = socket_path_;
    o.pool_size = 1;
    o.cache_enabled = true;  // no cache_dir: memory only
    o.quarantine_strikes = 0;
    o.certify = true;
    o.default_timeout_seconds = kJobLimitS;
    o.max_timeout_seconds = kJobLimitS;
    server_ = std::make_unique<service::Server>(o);
    if (const Status s = server_->start(); !s.ok())
      throw std::runtime_error("server start: " + std::string(s.message()));
    thread_ = std::thread([this] { exit_code_ = server_->serve(); });
    Result<service::ServiceClient> client =
        service::ServiceClient::connect(socket_path_);
    if (!client.ok()) {
      drain();
      throw std::runtime_error("connect: " +
                               std::string(client.status().message()));
    }
    client_ = std::move(*client);
  }
  ~InProcessServer() {
    if (thread_.joinable()) drain();
  }
  InProcessServer(const InProcessServer&) = delete;
  InProcessServer& operator=(const InProcessServer&) = delete;

  service::ServiceClient& client() { return client_; }

  /// Drains the server; true for a clean drain (serve() returned 0 and the
  /// socket file is gone).
  bool drain() {
    client_.close();
    server_->request_drain();
    thread_.join();
    return exit_code_ == 0 && ::access(socket_path_.c_str(), F_OK) != 0;
  }

 private:
  std::string socket_path_;
  std::unique_ptr<service::Server> server_;
  service::ServiceClient client_;
  int exit_code_ = -1;
  std::thread thread_;  // last: it runs on the members above
};

void drain_or_report(InProcessServer& server, Report& report) {
  if (!server.drain()) report.wrong("the server did not drain cleanly");
}

/// Inverse of Gf2k::to_string ("α^3 + α + 1", "0").
std::optional<Gf2k::Elem> parse_elem(const std::string& s) {
  if (s == "0") return Gf2k::Elem{};
  static const std::string kAlpha = "α";
  static const std::string kPower = kAlpha + "^";
  std::vector<unsigned> exponents;
  for (std::size_t pos = 0; pos <= s.size();) {
    std::size_t end = s.find(" + ", pos);
    if (end == std::string::npos) end = s.size();
    const std::string term = s.substr(pos, end - pos);
    pos = end + 3;
    if (term == "1" || term == kAlpha) {
      exponents.push_back(term == "1" ? 0 : 1);
      continue;
    }
    const std::string digits =
        term.rfind(kPower, 0) == 0 ? term.substr(kPower.size()) : "";
    if (digits.empty() || digits.size() > 8 ||
        !std::all_of(digits.begin(), digits.end(), ::isdigit))
      return std::nullopt;
    exponents.push_back(static_cast<unsigned>(std::stoul(digits)));
  }
  return Gf2Poly::from_exponents(exponents);
}

/// Replays a service counterexample through the simulator: the two
/// circuits must disagree there, with the outputs the service reported.
bool replays(const certify::Counterexample& cex, const Netlist& spec,
             const Netlist& impl, const Gf2k& field) {
  auto output = [&](const Netlist& nl) -> std::optional<Gf2Poly> {
    std::vector<std::pair<const Word*, std::vector<Gf2Poly>>> in;
    for (const Word* w : input_words(nl)) {
      const auto it = cex.inputs.find(w->name);
      if (it == cex.inputs.end()) return std::nullopt;
      std::optional<Gf2Poly> e = parse_elem(it->second);
      if (!e) return std::nullopt;
      in.push_back({w, {*e}});
    }
    const Word* out = nl.find_word(cex.output_word);
    if (out == nullptr) return std::nullopt;
    return simulate_words(nl, *out, in)[0];
  };
  const std::optional<Gf2Poly> s = output(spec), i = output(impl);
  return s && i && *s != *i && field.to_string(*s) == cex.expected &&
         field.to_string(*i) == cex.actual;
}

struct Outcome {
  double rtt_ms = 0;
  std::string cache;  // "hit", "stored", "miss", or "" on failure
};

/// One ServiceClient::call, with its answer checked.
Outcome serve_job(service::ServiceClient& client, const ServeSetup& setup,
                  const ServeImpl& impl, const Gf2k& field, Report& report) {
  service::JobRequest req;
  req.spec_path = setup.spec_path;
  req.impl_path = impl.path;
  req.k = kServeK;
  req.timeout_seconds = kJobLimitS;
  const Clock::time_point t0 = Clock::now();
  const Result<service::JobResponse> resp =
      client.call(std::move(req), kReceiveTimeoutS);
  const double rtt_ms = ms_since(t0);
  ++report.attempted;
  if (!resp.ok())
    throw std::runtime_error("service call: " +
                             std::string(resp.status().message()));
  const std::string what = impl.kind + " (" + impl.path + ")";
  if (resp->status.code() == StatusCode::kCertificationFailed) {
    report.wrong(what + ": certification failed");
    return {rtt_ms, ""};
  }
  if (!resp->status.ok() || rtt_ms > 1e3 * kJobLimitS) {
    ++report.failed;
    return {rtt_ms, ""};
  }
  if (impl.equivalent) {
    const auto points = resp->stats.find("certify_points");
    if (resp->verdict != engine::Verdict::kEquivalent)
      report.wrong(what + ": not EQUIVALENT");
    else if (points == resp->stats.end() || points->second <= 0)
      report.wrong(what + ": EQUIVALENT without certification");
  } else if (resp->verdict != engine::Verdict::kNotEquivalent) {
    report.wrong(what + ": not NOT EQUIVALENT");
  } else if (resp->counterexample.empty() || !resp->counterexample.replayed) {
    report.wrong(what + ": NOT EQUIVALENT without a replayed counterexample");
  } else if (!replays(resp->counterexample, setup.spec, impl.netlist, field)) {
    report.wrong(what + ": the counterexample does not replay");
  }
  return {rtt_ms, resp->cache};
}

std::string socket_path(const Options& options) {
  return options.workdir + "/serve.sock";
}

/// The forked worker's job, run in-process: read and parse both files, run
/// the engine with certification and canonical-form export. Returns ms.
double engine_ms(const std::string& spec_path, const std::string& impl_path,
                 const Gf2k& field, Report& report) {
  const Clock::time_point t0 = Clock::now();
  const Result<Netlist> spec = try_read_netlist_file(spec_path);
  const Result<Netlist> impl = try_read_netlist_file(impl_path);
  if (!spec.ok() || !impl.ok()) throw std::runtime_error("cannot read a netlist");
  engine::RunOptions options;
  options.certify = true;
  options.export_canonical = true;
  const engine::EngineRun run = engine::run_engine(
      *engine::EngineRegistry::global().find("abstraction"), *spec, *impl,
      field, options);
  const double ms = ms_since(t0);
  if (!run.status.ok()) report.wrong("in-process engine run failed");
  return ms;
}

/// The worker's job on one pair, one public call at a time, each layer
/// timed; its verdict and polynomials are checked (the spec's only when
/// `check_spec`).
void layered_serve_job(const std::string& spec_text, const ServeImpl& impl,
                       const Gf2k& field, LayerTotals& t, double& layered_ms,
                       Report& report, bool check_spec) {
  const std::string impl_text = read_file(impl.path);
  ++t.jobs;
  ++report.attempted;
  const Clock::time_point t0 = Clock::now();
  const Netlist s = timed_parse(spec_text, t);
  const Netlist m = timed_parse(impl_text, t);
  Clock::time_point tf = Clock::now();
  const WordLift lift(&field);
  t.frobenius_ms += ms_since(tf);
  const WordFunction spec_fn = layered_extract(s, field, lift, t);
  const WordFunction impl_fn = layered_extract(m, field, lift, t);
  tf = Clock::now();
  const bool same = same_word_function(spec_fn, impl_fn);
  t.match_ms += ms_since(tf);
  t.match_terms +=
      static_cast<double>(spec_fn.g.num_terms() + impl_fn.g.num_terms());
  tf = Clock::now();
  if (same) {
    const certify::CertifyOutcome cert =
        certify::certify_equivalence(s, m, field);
    t.certify_ms += ms_since(tf);
    t.certify_points += static_cast<double>(cert.points);
    t.certify_runs += 1;
    if (!cert.status.ok()) report.wrong(impl.kind + ": certification failed");
  } else {
    const auto w = certify::find_word_function_witness(spec_fn, impl_fn, field);
    const certify::Counterexample cex =
        w ? certify::replay_witness(s, m, field, *w) : certify::Counterexample{};
    t.witness_ms += ms_since(tf);
    t.witness_runs += 1;
    if (!cex.replayed) report.wrong(impl.kind + ": no replayed witness");
  }
  layered_ms += ms_since(t0);
  if (same != impl.equivalent) report.wrong(impl.kind + ": wrong verdict");
  if (!identical(impl_fn, extract_word_function(m, field)) ||
      (check_spec && !identical(spec_fn, extract_word_function(s, field))))
    report.wrong("layer-by-layer polynomial differs from extract_word_function");
}

void traced_serve(const Options& options, const Gf2k& field, Report& report) {
  const ServeSetup setup = make_spec(options, field);
  PassStream stream = pass_stream(options, setup, field);
  const Pass pass = make_pass(setup.spec, stream, field, options.workdir);

  // service: one pass against a cold server.
  ServiceSamples samples;
  std::map<std::size_t, double> miss_rtt;
  {
    InProcessServer server(socket_path(options));
    for (const std::size_t i : pass.order) {
      const Outcome o = serve_job(server.client(), setup, pass.impls[i], field,
                                  report);
      if (o.cache.empty()) continue;
      ++samples.lookups;
      if (o.cache == "hit") {
        ++samples.hits;
        samples.hit_ms.push_back(o.rtt_ms);
      } else {
        samples.miss_ms.push_back(o.rtt_ms);
        miss_rtt[i] = o.rtt_ms;
      }
    }
    drain_or_report(server, report);
  }

  // The same pairs in-process, after one uncounted warm-up: each as the
  // worker's job (untraced) and layer by layer.
  LayerTotals t;
  double untraced_ms = 0, layered_ms = 0;
  std::vector<double> overhead_ms;
  const std::string spec_text = read_file(setup.spec_path);
  engine_ms(setup.spec_path, pass.impls[0].path, field, report);
  for (std::size_t i = 0; i < pass.impls.size(); ++i) {
    const ServeImpl& impl = pass.impls[i];
    const auto untraced = [&] {
      const double ms = engine_ms(setup.spec_path, impl.path, field, report);
      untraced_ms += ms;
      if (const auto it = miss_rtt.find(i); it != miss_rtt.end())
        samples.overhead_ms.push_back(it->second - ms);
    };
    const auto layered = [&] {
      layered_serve_job(spec_text, impl, field, t, layered_ms, report, i == 0);
    };
    const double before = layered_ms - untraced_ms;
    untraced_and_layered(static_cast<int>(i), untraced, layered);
    overhead_ms.push_back(layered_ms - untraced_ms - before);
  }

  report.set("trace.coverage", (t.job_layer_ms() + t.witness_ms) / layered_ms,
             "ratio", t.jobs, "layer time / traced job time");
  add_layer_metrics(report, t);
  Rng rng(options.seed);
  add_gf_metrics(report, field, rng);
  add_service_metrics(report, samples, "one cold pass");
  report.set("trace.overhead_ms", median(overhead_ms), "ms",
             overhead_ms.size(),
             "median per job: layered job minus the worker's job in-process");
}

}  // namespace

ServiceSamples service_probe(const std::string& workdir, Report& report) {
  const Gf2k field = Gf2k::make(kServeK);
  ServeSetup setup;
  setup.spec = make_mastrovito_multiplier(field);
  setup.spec_path = workdir + "/probe_spec.nl";
  write_file(setup.spec_path, write_netlist(setup.spec));
  ServeImpl impl{"probe montgomery (equivalent)", workdir + "/probe_impl.nl",
                 make_montgomery_multiplier_flat(field), true, true};
  write_file(impl.path, write_netlist(impl.netlist));

  ServiceSamples samples;
  InProcessServer server(workdir + "/probe.sock");
  for (int i = 0; i < 2; ++i) {
    const Outcome o = serve_job(server.client(), setup, impl, field, report);
    ++samples.lookups;
    if (o.cache == "hit") {
      ++samples.hits;
      samples.hit_ms.push_back(o.rtt_ms);
    } else {
      samples.miss_ms.push_back(o.rtt_ms);
    }
  }
  drain_or_report(server, report);
  if (samples.hits != 1) report.wrong("probe: the repeat was not a cache hit");
  samples.overhead_ms.push_back(
      samples.miss_ms.at(0) -
      engine_ms(setup.spec_path, impl.path, field, report));
  return samples;
}

void run_serve(const Options& options, Report& report) {
  const Gf2k field = Gf2k::make(kServeK);
  report.header.emplace_back("k", std::to_string(kServeK));
  report.header.emplace_back("kernel_tier", to_string(field.kernel_tier()));
  report.header.emplace_back("job_limit_s", std::to_string(kJobLimitS));
  report.header.emplace_back(
      "pass", "montgomery mutants 11 bilinear + 3 cubic, mastrovito mutants "
              "10 bilinear + 2 cubic + 2 one-quartic, 2 equivalent designs; "
              "12 of them sent twice");
  if (options.trace) {
    traced_serve(options, field, report);
    return;
  }

  // One block per pass, right after its set-up: generate, filter and write
  // the pass's netlists, start a fresh server for it (so each pass sees a
  // cold cache). The golden circuits are made once, before the loop.
  const ServeSetup setup = make_spec(options, field);
  PassStream stream = pass_stream(options, setup, field);
  std::vector<double> setup_s;
  std::vector<JobSample> jobs;
  std::uint64_t hits = 0, lookups = 0;
  double rss_mb = 0;
  const Clock::time_point loop = Clock::now();
  for (std::size_t p = 0; p == 0 || seconds_since(loop) < options.seconds;
       ++p) {
    const Clock::time_point t0 = Clock::now();
    const Pass pass = make_pass(setup.spec, stream, field, options.workdir);
    InProcessServer server(socket_path(options));
    setup_s.push_back(seconds_since(t0));
    for (const std::size_t i : pass.order) {
      const double start = seconds_since(loop);
      const Outcome o =
          serve_job(server.client(), setup, pass.impls[i], field, report);
      jobs.push_back({p, start, o.rtt_ms / 1e3});
      if (o.cache.empty()) continue;
      ++lookups;
      if (o.cache == "hit") ++hits;
    }
    drain_or_report(server, report);
    remove_files(pass);
    if (p + 1 == kRssPasses) rss_mb = peak_rss_mb(true);
  }
  if (rss_mb == 0) rss_mb = peak_rss_mb(true);
  add_job_metrics(report, jobs, setup_s,
                  "generate, filter and write one pass, start its server",
                  rss_mb,
                  "this process and its largest forked worker, first " +
                      std::to_string(kRssPasses) + " passes");
  report.set("cache.hit_ratio",
             static_cast<double>(hits) / static_cast<double>(lookups), "ratio",
             lookups,
             "hits " + std::to_string(hits) + " over lookups " +
                 std::to_string(lookups),
             /*in_json=*/false);
}

void run_survey(const Options& options, std::size_t count, Report& report) {
  const Gf2k field = Gf2k::make(kServeK);
  report.header.emplace_back("k", std::to_string(kServeK));
  report.header.emplace_back("job_limit_s", std::to_string(kJobLimitS));
  const Netlist spec = make_mastrovito_multiplier(field);
  const std::pair<const char*, Netlist> goldens[] = {
      {"montgomery", make_montgomery_multiplier_flat(field)},
      {"mastrovito", spec}};
  // The worker's job, in-process, cut at twice the per-job limit: a job past
  // half the limit decides too close to it for a steady run.
  const double cut_s = 2 * kJobLimitS;
  for (const auto& [name, golden] : goldens) {
    Rng rng(options.seed);
    std::set<std::uint64_t> seen;
    std::map<std::string, std::vector<double>> classes;
    std::size_t duplicates = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t mutant_seed = rng.next();
      const Netlist bug = inject_random_bug(golden, mutant_seed);
      if (!seen.insert(worker::netlist_content_hash(bug)).second) {
        ++duplicates;
        continue;
      }
      if (!certify::find_simulation_witness(spec, bug, field, 256,
                                            mutant_seed)) {
        classes["equivalent"].push_back(0);
        continue;
      }
      const Shape shape = remainder_shape(bug, field);
      engine::RunOptions run_options;
      run_options.certify = true;
      run_options.export_canonical = true;
      run_options.control.deadline = Deadline::after(cut_s);
      const Clock::time_point t0 = Clock::now();
      const engine::EngineRun run = engine::run_engine(
          *engine::EngineRegistry::global().find("abstraction"), spec, bug,
          field, run_options);
      const double s = seconds_since(t0);
      const char* time_class =
          !run.status.ok() || s >= cut_s ? "undecided"
          : s < kJobLimitS / 2           ? "decided"
                                         : "near_limit";
      if (run.status.ok() && run.verdict != engine::Verdict::kNotEquivalent)
        report.wrong(std::string(name) + " mutant: not NOT EQUIVALENT");
      classes[std::string(to_string(shape)) + "." + time_class].push_back(s);
    }
    const std::size_t distinct = count - duplicates;
    for (const auto& [cls, times] : classes) {
      char note[128];
      std::snprintf(note, sizeof(note),
                    "share %.3f of %zu distinct; job s median %.3g, max %.3g",
                    static_cast<double>(times.size()) /
                        static_cast<double>(distinct),
                    distinct, median(times),
                    *std::max_element(times.begin(), times.end()));
      report.set(std::string(name) + "." + cls,
                 static_cast<double>(times.size()), "count", distinct, note);
    }
  }
}

}  // namespace perfbench
