// gfa_client — submit verification jobs to a running gfa_serve.
//
//   gfa_client status --socket=<path>
//       print the server's JSON health snapshot (pool, queue, jobs, cache,
//       quarantine)
//
//   gfa_client clear-quarantine --socket=<path>
//       drop every quarantined job fingerprint so crashed jobs may run
//       again (e.g. after deploying a fixed engine); prints how many were
//       being tracked
//
//   gfa_client verify <spec> <impl> <k> --socket=<path>
//       [--engine=<name>] [--timeout=<s>] [--memory-budget=<size>]
//       [--no-cache]
//       one synchronous job; exit codes match gfa_tool verify
//       (0 equivalent, 1 not equivalent, 3 unknown, else the failure code)
//
//   gfa_client batch <jobs-file> --socket=<path> [--report=<file>]
//       [--timeout=<s>] [--no-cache]
//       pipeline many jobs from a file (one per line:
//       `<spec> <impl> <k> [engine]`, '#' comments and blank lines skipped),
//       print one line per outcome, and exit with the worst result across
//       the batch: any failed job's exit code, else 1 if any pair was not
//       equivalent, else 3 if any verdict is unknown, else 0. --report
//       writes a JSON summary of every job.
//
// --timeout here is the client-side wait per response, not the job's compute
// budget — ask the server for that via its --default/--max flags.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "engine/report.h"
#include "service/client.h"
#include "util/json_writer.h"
#include "util/parse_number.h"
#include "util/status.h"

namespace {

using namespace gfa;

constexpr int kUsage = 64;

int fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
  return exit_code_for(status.code());
}

int usage() {
  std::fprintf(stderr,
               "usage: gfa_client status --socket=<path>\n"
               "       gfa_client clear-quarantine --socket=<path>\n"
               "       gfa_client verify <spec> <impl> <k> --socket=<path>\n"
               "                  [--engine=<name>] [--timeout=<s>]\n"
               "                  [--memory-budget=<size>] [--no-cache]\n"
               "       gfa_client batch <jobs-file> --socket=<path>\n"
               "                  [--report=<file>] [--timeout=<s>] "
               "[--no-cache]\n");
  return kUsage;
}

struct Flags {
  std::vector<std::string> positional;
  std::string socket;
  std::string engine = "abstraction";
  std::string report;
  double timeout_seconds = 0.0;
  std::uint64_t memory_budget_bytes = 0;
  bool no_cache = false;
};

Result<Flags> parse_flags(int argc, char** argv) {
  Flags flags;
  const auto assign = [&](std::string_view name,
                          std::string_view value) -> Status {
    if (name == "--socket") {
      flags.socket = value;
    } else if (name == "--engine") {
      flags.engine = value;
    } else if (name == "--report") {
      flags.report = value;
    } else if (name == "--timeout") {
      Result<double> t = parse_double(value, 0.0, 1e9);
      if (!t.ok()) return t.status();
      flags.timeout_seconds = *t;
    } else if (name == "--memory-budget") {
      Result<std::uint64_t> bytes = parse_byte_size(value);
      if (!bytes.ok()) return bytes.status();
      flags.memory_budget_bytes = *bytes;
    } else {
      return Status::invalid_argument("unknown flag '" + std::string(name) +
                                      "'");
    }
    return Status();
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--no-cache") {
      flags.no_cache = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      flags.positional.emplace_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    Status s;
    if (eq != std::string_view::npos) {
      s = assign(arg.substr(0, eq), arg.substr(eq + 1));
    } else if (i + 1 < argc) {
      s = assign(arg, argv[++i]);
    } else {
      return Status::invalid_argument("flag '" + std::string(arg) +
                                      "' is missing its value");
    }
    if (!s.ok()) return s;
  }
  return flags;
}

void print_outcome(const service::BatchOutcome& o) {
  const service::JobResponse& r = o.response;
  std::string cache_note = r.cache.empty() ? "" : " [cache=" + r.cache + "]";
  if (r.status.ok()) {
    std::printf("job %llu: %s %s vs %s (%.1f ms)%s\n",
                static_cast<unsigned long long>(r.id),
                engine::verdict_name(r.verdict), o.request.spec_path.c_str(),
                o.request.impl_path.c_str(), r.wall_ms, cache_note.c_str());
  } else {
    std::printf("job %llu: FAILED %s vs %s: %s%s\n",
                static_cast<unsigned long long>(r.id),
                o.request.spec_path.c_str(), o.request.impl_path.c_str(),
                r.status.to_string().c_str(), cache_note.c_str());
  }
}

void write_batch_report(const std::string& path,
                        const std::vector<service::BatchOutcome>& outcomes) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write report file '%s'\n",
                 path.c_str());
    return;
  }
  JsonWriter w(out);
  w.begin_object();
  w.member("tool", "gfa_client");
  w.key("jobs");
  w.begin_array();
  for (const service::BatchOutcome& o : outcomes) {
    w.begin_object();
    w.member("id", o.response.id);
    w.member("spec", o.request.spec_path);
    w.member("impl", o.request.impl_path);
    w.member("k", o.request.k);
    w.member("engine", o.request.engine);
    engine::write_status(w, o.response.status, /*with_message=*/true);
    w.member("verdict", engine::verdict_name(o.response.verdict));
    if (!o.response.detail.empty()) w.member("detail", o.response.detail);
    engine::write_counterexample(w, o.response.counterexample);
    w.member("wall_ms", o.response.wall_ms);
    if (!o.response.cache.empty()) w.member("cache", o.response.cache);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << "\n";
}

int cmd_status(const Flags& flags) {
  Result<service::ServiceClient> client =
      service::ServiceClient::connect(flags.socket);
  if (!client.ok()) return fail(client.status());
  const Result<std::string> snapshot =
      client->status_json(flags.timeout_seconds);
  if (!snapshot.ok()) return fail(snapshot.status());
  std::printf("%s\n", snapshot->c_str());
  return 0;
}

int cmd_clear_quarantine(const Flags& flags) {
  Result<service::ServiceClient> client =
      service::ServiceClient::connect(flags.socket);
  if (!client.ok()) return fail(client.status());
  service::JobRequest req;
  req.op = "clear-quarantine";
  const Result<service::JobResponse> resp =
      client->call(std::move(req), flags.timeout_seconds);
  if (!resp.ok()) return fail(resp.status());
  if (!resp->status.ok()) return fail(resp->status);
  const auto it = resp->stats.find("cleared");
  std::printf("cleared %llu quarantined fingerprint(s)\n",
              static_cast<unsigned long long>(
                  it == resp->stats.end() ? 0.0 : it->second));
  return 0;
}

int cmd_verify(const Flags& flags) {
  if (flags.positional.size() != 3) return usage();
  const Result<unsigned> k = parse_unsigned(flags.positional[2], 2, 100000);
  if (!k.ok()) return fail(k.status());
  Result<service::ServiceClient> client =
      service::ServiceClient::connect(flags.socket);
  if (!client.ok()) return fail(client.status());
  service::JobRequest req;
  req.spec_path = flags.positional[0];
  req.impl_path = flags.positional[1];
  req.k = *k;
  req.engine = flags.engine;
  req.memory_budget_bytes = flags.memory_budget_bytes;
  req.no_cache = flags.no_cache;
  const Result<service::JobResponse> resp =
      client->call(std::move(req), flags.timeout_seconds);
  if (!resp.ok()) return fail(resp.status());
  service::BatchOutcome outcome;
  outcome.request.spec_path = flags.positional[0];
  outcome.request.impl_path = flags.positional[1];
  outcome.response = *resp;
  print_outcome(outcome);
  if (!resp->status.ok()) return exit_code_for(resp->status.code());
  if (resp->verdict == engine::Verdict::kNotEquivalent) {
    if (!resp->detail.empty()) std::printf("%s\n", resp->detail.c_str());
    if (!resp->counterexample.empty()) {
      std::printf("counterexample%s:",
                  resp->counterexample.replayed ? " (replayed)" : "");
      for (const auto& [name, elem] : resp->counterexample.inputs)
        std::printf(" %s=%s", name.c_str(), elem.c_str());
      std::printf(" -> %s: spec=%s, impl=%s\n",
                  resp->counterexample.output_word.c_str(),
                  resp->counterexample.expected.c_str(),
                  resp->counterexample.actual.c_str());
    }
    return 1;
  }
  return resp->verdict == engine::Verdict::kUnknown ? 3 : 0;
}

int cmd_batch(const Flags& flags) {
  if (flags.positional.size() != 1) return usage();
  std::ifstream in(flags.positional[0]);
  if (!in)
    return fail(Status::invalid_argument("cannot open jobs file '" +
                                         flags.positional[0] + "'"));
  std::vector<service::JobRequest> requests;
  std::string line;
  unsigned line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    service::JobRequest req;
    std::string k_text;
    if (!(fields >> req.spec_path)) continue;  // blank / comment-only line
    if (!(fields >> req.impl_path >> k_text))
      return fail(Status::invalid_argument(
          "jobs file line " + std::to_string(line_no) +
          ": expected `<spec> <impl> <k> [engine]`"));
    const Result<unsigned> k = parse_unsigned(k_text, 2, 100000);
    if (!k.ok())
      return fail(Status::invalid_argument(
          "jobs file line " + std::to_string(line_no) + ": " +
          std::string(k.status().message())));
    req.k = *k;
    if (!(fields >> req.engine)) req.engine = flags.engine;
    req.no_cache = flags.no_cache;
    requests.push_back(std::move(req));
  }
  if (requests.empty())
    return fail(Status::invalid_argument("jobs file '" + flags.positional[0] +
                                         "' contains no jobs"));

  Result<service::ServiceClient> client =
      service::ServiceClient::connect(flags.socket);
  if (!client.ok()) return fail(client.status());
  const Result<std::vector<service::BatchOutcome>> outcomes =
      service::run_batch(*client, std::move(requests), flags.timeout_seconds);
  if (!outcomes.ok()) return fail(outcomes.status());
  for (const service::BatchOutcome& o : *outcomes) print_outcome(o);
  if (!flags.report.empty()) write_batch_report(flags.report, *outcomes);
  const int code = service::batch_exit_code(*outcomes);
  std::printf("batch: %zu jobs, exit %d\n", outcomes->size(), code);
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  Result<Flags> flags = parse_flags(argc, argv);
  if (!flags.ok()) return fail(flags.status());
  if (flags->positional.empty()) return usage();
  if (flags->socket.empty()) return usage();
  const std::string command = flags->positional.front();
  flags->positional.erase(flags->positional.begin());
  if (command == "status") return cmd_status(*flags);
  if (command == "clear-quarantine") return cmd_clear_quarantine(*flags);
  if (command == "verify") return cmd_verify(*flags);
  if (command == "batch") return cmd_batch(*flags);
  return usage();
}
