// cqms_serverd: the CQMS network daemon.
//
// Serves the full CQMS surface (search, append, annotate, recommend,
// browse, admin) over the length-prefixed binary protocol documented in
// docs/server.md. Prints "LISTENING <port>" once ready; SIGTERM/SIGINT
// trigger a graceful drain (finish queued requests, flush responses,
// final checkpoint when durable).
//
// Stdout carries only the supervision handshake ("LISTENING <port>",
// "SHUTDOWN clean") so wrappers can parse it; all diagnostics go to
// stderr through the leveled logger (--log-level).

#include <signal.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <memory>

#include "netclient/failover.h"
#include "obs/log.h"
#include "repl/follower.h"
#include "server/server.h"
#include "workload/synthetic.h"

namespace {

cqms::server::CqmsServer* g_server = nullptr;

void HandleSignal(int) {
  if (g_server != nullptr) g_server->RequestShutdown();
}

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "  --host H               bind address (default 127.0.0.1)\n"
               "  --port N               bind port (default 0 = ephemeral)\n"
               "  --workers N            read-op worker threads (default 4)\n"
               "  --max-conns N          connection ceiling (default 256)\n"
               "  --max-frame-bytes N    per-frame payload ceiling (default 4MiB)\n"
               "  --idle-timeout-ms N    close idle connections (0 = never)\n"
               "  --request-timeout-ms N queue deadline per request (0 = never)\n"
               "  --durability-dir DIR   enable WAL+snapshot persistence\n"
               "  --follow HOST:PORT     run as a live read replica of that\n"
               "                         primary (mutations answer kNotPrimary)\n"
               "  --repl-heartbeat-ms N  primary: replication heartbeat cadence\n"
               "                         (default 500, 0 = off)\n"
               "  --demo-rows N          populate the demo lake schema with N\n"
               "                         rows per table (so Append can execute)\n"
               "  --log-level LEVEL      debug|info|warn|error (default info)\n"
               "  --slow-query-micros N  log searches slower than N us (0 = off)\n"
               "  --slow-query-log PATH  JSONL file for the slow-query log\n",
               argv0);
}

bool ParseSize(const char* s, uint64_t* out) {
  char* end = nullptr;
  unsigned long long v = strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  cqms::server::ServerOptions options;
  std::string durability_dir;
  uint64_t demo_rows = 0;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    uint64_t n = 0;
    if (arg == "--host") {
      options.host = next();
    } else if (arg == "--port" && ParseSize(next(), &n)) {
      options.port = static_cast<uint16_t>(n);
    } else if (arg == "--workers" && ParseSize(next(), &n)) {
      options.workers = n;
    } else if (arg == "--max-conns" && ParseSize(next(), &n)) {
      options.max_conns = n;
    } else if (arg == "--max-frame-bytes" && ParseSize(next(), &n)) {
      options.max_frame_bytes = n;
    } else if (arg == "--idle-timeout-ms" && ParseSize(next(), &n)) {
      options.idle_timeout_ms = static_cast<int64_t>(n);
    } else if (arg == "--request-timeout-ms" && ParseSize(next(), &n)) {
      options.request_timeout_ms = static_cast<int64_t>(n);
    } else if (arg == "--durability-dir") {
      durability_dir = next();
    } else if (arg == "--follow") {
      options.follow_primary = next();
    } else if (arg == "--repl-heartbeat-ms" && ParseSize(next(), &n)) {
      options.repl_heartbeat_ms = static_cast<int64_t>(n);
    } else if (arg == "--demo-rows" && ParseSize(next(), &n)) {
      demo_rows = n;
    } else if (arg == "--log-level") {
      cqms::obs::LogLevel level;
      const char* text = next();
      if (!cqms::obs::ParseLogLevel(text, &level)) {
        std::fprintf(stderr, "unknown log level: %s\n", text);
        return 2;
      }
      cqms::obs::SetLogLevel(level);
    } else if (arg == "--slow-query-micros" && ParseSize(next(), &n)) {
      options.slow_query_micros = static_cast<int64_t>(n);
    } else if (arg == "--slow-query-log") {
      options.slow_query_log_path = next();
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown or malformed flag: %s\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }

  if (!options.follow_primary.empty() && !durability_dir.empty()) {
    // A follower's store is a replica of the primary's durable log;
    // layering a local WAL under it would double-apply on restart.
    std::fprintf(stderr, "--follow and --durability-dir are exclusive\n");
    return 2;
  }

  cqms::Cqms cqms;

  // Order matters: durability must see a pristine store, so enable it
  // before demo data or any served request.
  if (!durability_dir.empty()) {
    cqms::Status s = cqms.EnableDurability(durability_dir);
    if (!s.ok()) {
      CQMS_LOG(kError, "EnableDurability(%s): %s", durability_dir.c_str(),
               s.ToString().c_str());
      return 1;
    }
    CQMS_LOG(kInfo, "durability enabled in %s", durability_dir.c_str());
  }
  if (demo_rows > 0) {
    cqms::Status s =
        cqms::workload::PopulateLakeDatabase(cqms.database(), demo_rows);
    if (!s.ok()) {
      CQMS_LOG(kError, "PopulateLakeDatabase: %s", s.ToString().c_str());
      return 1;
    }
    CQMS_LOG(kInfo, "demo lake schema populated (%llu rows/table)",
             static_cast<unsigned long long>(demo_rows));
  }

  cqms::server::CqmsServer server(&cqms, options);

  // Follower mode: a repl::Follower streams the primary's WAL into the
  // server's writer thread; the server serves reads and answers every
  // mutation with kNotPrimary (docs/replication.md).
  std::unique_ptr<cqms::repl::Follower> follower;
  if (!options.follow_primary.empty()) {
    auto ep = cqms::netclient::ParseEndpoint(options.follow_primary);
    if (!ep.ok()) {
      std::fprintf(stderr, "--follow: %s\n", ep.status().ToString().c_str());
      return 2;
    }
    cqms::repl::FollowerOptions fopts;
    fopts.primary_host = ep->host;
    fopts.primary_port = ep->port;
    fopts.name = options.host + ":" + std::to_string(options.port);
    // Non-owning alias: `cqms` outlives both server and follower.
    std::shared_ptr<cqms::Cqms> live(&cqms, [](cqms::Cqms*) {});
    follower = std::make_unique<cqms::repl::Follower>(&server, std::move(live),
                                                      fopts);
    server.SetFollower(follower.get());
  }

  cqms::Status s = server.Start();
  if (!s.ok()) {
    CQMS_LOG(kError, "Start: %s", s.ToString().c_str());
    return 1;
  }
  if (follower != nullptr) follower->Start();

  g_server = &server;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleSignal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  signal(SIGPIPE, SIG_IGN);

  CQMS_LOG(kInfo, "%s serving on %s:%u (%zu workers)",
           cqms::server::kServerVersion, options.host.c_str(), server.port(),
           options.workers);
  if (options.slow_query_micros > 0) {
    CQMS_LOG(kInfo, "slow-query log: >=%lldus -> %s",
             static_cast<long long>(options.slow_query_micros),
             options.slow_query_log_path.c_str());
  }

#if defined(__GLIBC__)
  // Start-up is done: hand the free pages the restore's transients left
  // in the heap back to the kernel before serving (once a large freed
  // buffer raises glibc's dynamic mmap threshold, later large buffers
  // such as the WAL replay's read window land in the arena and leave a
  // hole there when freed).
  malloc_trim(0);
#endif

  // The stdout handshake stays raw printf: supervising scripts and the
  // e2e smoke parse these two lines verbatim.
  std::printf("LISTENING %u\n", server.port());
  std::fflush(stdout);

  server.Wait();
  // After Wait the writer queue rejects new work, so the follower's
  // in-flight apply fails fast instead of deadlocking.
  if (follower != nullptr) follower->Stop();
  CQMS_LOG(kInfo, "shutdown complete");
  std::printf("SHUTDOWN clean\n");
  return 0;
}
