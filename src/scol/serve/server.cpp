#include "scol/serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>

#include <cerrno>
#include <chrono>
#include <iostream>
#include <istream>
#include <map>
#include <ostream>
#include <streambuf>
#include <string>
#include <thread>
#include <utility>

#include "scol/api/oneshot.h"
#include "scol/api/registry.h"
#include "scol/serve/fdstream.h"
#include "scol/util/check.h"
#include "scol/version.h"

namespace scol {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// The request's graph entry, by content hash or by (gen, seed); throws
// when the hash is not resident or the build failed.
std::shared_ptr<GraphEntry> lookup_graph(GraphStore& store,
                                         const ServeRequest& req,
                                         bool* graph_hit) {
  std::shared_ptr<GraphEntry> entry;
  if (req.digest.has_value()) {
    entry = store.find_digest(*req.digest);
    SCOL_REQUIRE(entry != nullptr, + ("no resident graph with hash '" +
                                      req.digest->hex() + "'"));
    *graph_hit = true;
  } else {
    entry = store.get_scenario(req.spec.scenario, req.spec.seed, graph_hit);
  }
  SCOL_REQUIRE(entry->graph() != nullptr, + entry->error());
  return entry;
}

Json cache_stats_json(const CacheStats& s) {
  Json out = Json::object();
  out.set("hits", Json::integer(static_cast<std::int64_t>(s.hits)));
  out.set("misses", Json::integer(static_cast<std::int64_t>(s.misses)));
  out.set("evictions",
          Json::integer(static_cast<std::int64_t>(s.evictions)));
  out.set("entries", Json::integer(static_cast<std::int64_t>(s.entries)));
  return out;
}

}  // namespace

/// One request line moving through a batch: parse state, graph/report
/// cache resolution, and finally the serialized response.
struct Server::Pending {
  ServeRequest req;
  std::string error;  ///< parse/resolve/solve failure (→ error envelope)
  Clock::time_point arrival;

  std::shared_ptr<GraphEntry> entry;
  bool graph_hit = false;
  bool report_hit = false;
  std::string key;
  std::shared_ptr<const std::string> report;
  double solve_ms = 0.0;
  std::string response;
};

Server::Server(const ServerOptions& options)
    : options_(options),
      store_(options.graph_cache_capacity),
      reports_(options.report_cache_capacity) {
  SCOL_REQUIRE(options.jobs >= 1, + "server wants jobs >= 1");
  SCOL_REQUIRE(options.max_batch >= 1, + "server wants max_batch >= 1");
  // grain=1: the unit of work is one unique solve, not 256 of them.
  if (options.jobs > 1)
    pool_ = std::make_unique<ThreadPoolExecutor>(options.jobs, /*grain=*/1);
}

bool Server::serve_stream(std::istream& in, std::ostream& out) {
  std::vector<Pending> batch;
  std::string line;
  // A failed `out` means the peer is gone (EPIPE on a socket, a closed
  // pipe): stop reading — parsing and solving for a client that cannot
  // receive answers is wasted work — and let the caller close. This is a
  // clean per-connection exit, never a daemon error.
  while (out && std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;

    Pending p;
    p.arrival = Clock::now();
    try {
      parse_request(line, p.req);
    } catch (const std::exception& e) {
      p.error = e.what();
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++counters_.requests;
    }

    if (p.error.empty() && p.req.op != ServeOp::kSolve) {
      // Control requests are barriers: they observe every solve that
      // arrived before them, so a client can assert on counters.
      flush(batch, out);
      if (p.req.op == ServeOp::kProbe) {
        // Answered inline off the graph cache; the per-entry probe is
        // memoized (cache.h), so re-probing a resident graph is free.
        try {
          bool graph_hit = false;
          const auto entry = lookup_graph(store_, p.req, &graph_hit);
          // The probe object of `scol-cli probe`, after the serving
          // envelope's graph identity (digest + cache verdict).
          Json payload = Json::object();
          payload.set("hash", Json::str(entry->digest().hex()));
          payload.set("graph_cache", Json::str(graph_hit ? "hit" : "miss"));
          const Json probe = to_json(entry->probe(p.req.probe_options));
          for (const auto& [key, value] : probe.members())
            payload.set(key, value);
          out << payload_envelope(p.req.id, "probe", payload) << "\n";
        } catch (const std::exception& e) {
          out << error_envelope(p.req.id, e.what()) << "\n";
        }
        out.flush();
      } else if (p.req.op == ServeOp::kStats) {
        out << payload_envelope(p.req.id, "stats", stats_json()) << "\n";
        out.flush();
      } else {
        shutting_down_.store(true);
        Json payload = Json::object();
        payload.set("stopping", Json::boolean(true));
        out << payload_envelope(p.req.id, "shutdown", payload) << "\n";
        out.flush();
        return true;
      }
      continue;
    }

    batch.push_back(std::move(p));
    // Opportunistic batching: drain while more input is already
    // buffered, flush the moment the stream would block (a lone request
    // never waits for company).
    if (batch.size() >= options_.max_batch || in.rdbuf()->in_avail() <= 0)
      flush(batch, out);
  }
  flush(batch, out);
  return shutting_down_.load();
}

void Server::flush(std::vector<Pending>& batch, std::ostream& out) {
  if (batch.empty()) return;
  // The worker pool is not reentrant, so exactly one batch runs at a
  // time across every connection; the caches are shared regardless.
  std::lock_guard<std::mutex> solve_lock(solve_mu_);
  const auto start = Clock::now();

  // Resolve graphs and canonical keys; answer report-cache hits.
  for (auto& p : batch) {
    if (!p.error.empty()) continue;
    OneShotSpec& spec = p.req.spec;
    try {
      p.entry = lookup_graph(store_, p.req, &p.graph_hit);
      // The report echoes a scenario spec; for content-addressed
      // requests that echo is the digest itself.
      if (p.req.digest.has_value())
        spec.scenario = "hash:" + p.req.digest->hex();

      // Key on RESOLVED values (admit(): k, normalized lists mode,
      // palette): an explicit `k` equal to the auto-k, or a don't-care
      // lists mode on a no-lists algorithm, lands on the same entry —
      // the report echoes resolved values, so sharing is byte-safe.
      const Admission admission =
          admit(AlgorithmRegistry::instance().at(spec.algorithm),
                *p.entry->graph(), spec.k, spec.lists_mode, spec.palette,
                spec.params);
      p.key = p.entry->digest().hex() + '|' + spec.scenario + '|' +
              spec.algorithm + '|' + std::to_string(spec.seed) + '|' +
              std::to_string(admission.k) + '|' + admission.lists + '|' +
              std::to_string(admission.palette) + '|' +
              std::to_string(spec.round_budget) + '|' +
              (spec.with_coloring ? "c" : "-") + '|' +
              canonical_params(spec.params);
      p.report = reports_.lookup(p.key);
      p.report_hit = p.report != nullptr;
    } catch (const std::exception& e) {
      p.error = e.what();
    }
  }

  // Group cache misses by key: the same (graph, algo, seed, params)
  // asked twice in one batch solves once.
  std::map<std::string, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Pending& p = batch[i];
    if (p.error.empty() && !p.report_hit) groups[p.key].push_back(i);
  }
  std::vector<std::map<std::string, std::vector<std::size_t>>::iterator>
      work;
  work.reserve(groups.size());
  for (auto it = groups.begin(); it != groups.end(); ++it)
    work.push_back(it);

  const Executor& exec = resolve_executor(pool_.get());
  parallel_for_index(exec, work.size(), [&](std::size_t wi) {
    const std::vector<std::size_t>& idxs = work[wi]->second;
    Pending& leader = batch[idxs.front()];
    const auto t0 = Clock::now();
    std::string serialized;
    std::string err;
    auto arena = acquire_arena();
    try {
      serialized = one_shot_report_on(*leader.entry->graph(),
                                      leader.req.spec,
                                      /*executor=*/nullptr, arena)
                       .dump();
    } catch (const std::exception& e) {
      err = e.what();
    }
    release_arena(std::move(arena));
    const double solve_ms = ms_between(t0, Clock::now());

    std::shared_ptr<const std::string> shared;
    if (err.empty()) {
      reports_.insert(work[wi]->first, serialized);
      shared = std::make_shared<const std::string>(std::move(serialized));
    }
    for (const std::size_t idx : idxs) {
      Pending& p = batch[idx];
      p.solve_ms = solve_ms;
      if (err.empty())
        p.report = shared;
      else
        p.error = err;
    }
  });

  std::uint64_t errors = 0;
  for (auto& p : batch) {
    const double queue_ms = ms_between(p.arrival, start);
    if (!p.error.empty()) {
      ++errors;
      p.response = error_envelope(p.req.id, p.error);
    } else {
      p.response = solve_envelope(p.req.id, p.graph_hit, p.report_hit,
                                  p.entry->digest(), queue_ms, p.solve_ms,
                                  batch.size(), *p.report);
    }
  }
  for (const auto& p : batch) out << p.response << "\n";
  out.flush();

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++counters_.batches;
    counters_.max_batch = std::max<std::uint64_t>(counters_.max_batch,
                                                  batch.size());
    counters_.solves += work.size();
    counters_.errors += errors;
  }
  batch.clear();
}

std::shared_ptr<Arena> Server::acquire_arena() {
  std::lock_guard<std::mutex> lock(arena_mu_);
  if (arenas_.empty()) return std::make_shared<Arena>();
  auto arena = std::move(arenas_.back());
  arenas_.pop_back();
  return arena;
}

void Server::release_arena(std::shared_ptr<Arena> arena) {
  std::lock_guard<std::mutex> lock(arena_mu_);
  arenas_.push_back(std::move(arena));
}

Json Server::stats_json() const {
  Json out = Json::object();
  out.set("version", Json::str(kVersion));
  out.set("graphs", cache_stats_json(store_.stats()));
  out.set("reports", cache_stats_json(reports_.stats()));
  ServerCounters c;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    c = counters_;
  }
  Json server = Json::object();
  server.set("jobs", Json::integer(options_.jobs));
  server.set("max_batch", Json::integer(static_cast<std::int64_t>(
                              options_.max_batch)));
  server.set("requests",
             Json::integer(static_cast<std::int64_t>(c.requests)));
  server.set("solves", Json::integer(static_cast<std::int64_t>(c.solves)));
  server.set("errors", Json::integer(static_cast<std::int64_t>(c.errors)));
  server.set("batches",
             Json::integer(static_cast<std::int64_t>(c.batches)));
  server.set("largest_batch",
             Json::integer(static_cast<std::int64_t>(c.max_batch)));
  out.set("server", std::move(server));
  return out;
}

int Server::listen_and_serve(int port,
                             const std::function<void(int)>& on_listening) {
  // A client that disconnects while a connection thread is mid-write
  // must surface as an EPIPE write error (handled as a clean close in
  // serve_stream), not as a process-killing SIGPIPE. Installed here as
  // well as in the daemon's main() so in-process callers (tests,
  // embedders) get the same protection.
  ::signal(SIGPIPE, SIG_IGN);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::cerr << "scol-serve: socket() failed\n";
    return 1;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    std::cerr << "scol-serve: cannot listen on 127.0.0.1:" << port << "\n";
    ::close(fd);
    return 1;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  listen_fd_.store(fd);
  if (on_listening) on_listening(ntohs(addr.sin_port));

  std::vector<std::thread> connections;
  for (;;) {
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      // A shutdown request shut the listener down from a connection
      // thread; anything else is a real socket failure.
      break;
    }
    // Responses are written as soon as they are ready; without
    // TCP_NODELAY Nagle's algorithm would hold a short response back until
    // the client acknowledges the previous one.
    ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections.emplace_back([this, conn, fd] {
      FdStreamBuf buf(conn);
      std::istream in(&buf);
      std::ostream out(&buf);
      const bool stop = serve_stream(in, out);
      out.flush();
      ::shutdown(conn, SHUT_RDWR);
      ::close(conn);
      // Unblock the accept loop; the fd itself is closed there.
      if (stop) ::shutdown(fd, SHUT_RDWR);
    });
  }
  const bool clean = shutting_down_.load();
  if (!clean) std::cerr << "scol-serve: accept() failed\n";
  listen_fd_.store(-1);
  ::close(fd);
  for (auto& t : connections) t.join();
  return clean ? 0 : 1;
}

}  // namespace scol
