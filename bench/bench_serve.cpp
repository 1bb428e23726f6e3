// Saturation bench for the serve subsystem: sustained jobs/min of a
// SanitizeService worker pool at 1, 2 and 4 workers, driven in-process so
// no socket or client latency muddies the number.
//
// The tensor runtime is pinned to ONE thread, so the measured scaling
// comes from worker-level parallelism (concurrent jobs), not from the
// kernels — the honest number for capacity planning, since a deployment
// sizes its worker pool against single-threaded job cost. The backbone
// cache is disabled so every job carries the full pipeline (train poisoned
// backbone + sanitize + evaluate); cache-hit latency is a separate,
// near-free path that would only flatter the result.
//
// A second table measures the same workload end to end through each
// transport (AF_UNIX vs TCP loopback): daemon in a thread, jobs submitted
// and awaited through the retrying client. The delta against the
// in-process number is the protocol + socket overhead; the delta between
// the two transports is what moving off-box costs (minus real network
// latency, which loopback cannot show).
//
// Besides the console table, a machine-readable summary goes to
// BENCH_serve.json (override with BDPROTO_BENCH_JSON) so CI can archive
// service throughput across commits.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "robust/supervisor.h"
#include "util/atomic_file.h"
#include "runtime/thread_pool.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/service.h"
#include "util/json.h"

namespace {

constexpr std::int64_t kJobs = 9;
constexpr int kTenants = 3;

bd::serve::JobSpec tiny_spec(std::int64_t index) {
  bd::serve::JobSpec spec;
  spec.tenant = "tenant" + std::to_string(index % kTenants);
  spec.spc = 2;
  spec.seed = 1234 + static_cast<std::uint64_t>(index);  // distinct backbones
  spec.width = 4;
  spec.attack_epochs = 1;
  spec.prune_rounds = 2;
  spec.finetune_epochs = 1;
  spec.train_per_class = 4;
  spec.test_per_class = 4;
  return spec;
}

struct RunResult {
  std::size_t workers = 0;
  double seconds = 0.0;
  double jobs_per_min = 0.0;
  std::int64_t done = 0;
  std::int64_t failed = 0;
};

RunResult run_at(std::size_t workers) {
  bd::robust::Supervisor supervisor;  // fresh strikes/stats per pool size
  bd::serve::ServiceConfig config;
  config.workers = workers;
  config.queue_capacity = static_cast<std::size_t>(kJobs);
  config.tenant_quota = static_cast<std::size_t>(kJobs);
  config.cache_capacity = 0;  // full pipeline on every job
  config.supervisor = &supervisor;

  bd::serve::SanitizeService service(config);
  for (std::int64_t i = 0; i < kJobs; ++i) {
    const bd::serve::SubmitResult submitted = service.submit(tiny_spec(i));
    if (submitted.admission != bd::serve::Admission::kAdmitted) {
      std::fprintf(stderr, "bench_serve: submit rejected: %s\n",
                   bd::serve::admission_name(submitted.admission));
      std::exit(1);
    }
  }

  // Workers start after the queue is loaded: the measurement is pure
  // drain, no submit latency inside the window.
  const auto t0 = std::chrono::steady_clock::now();
  service.start();
  service.drain();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - t0;
  service.stop();

  const bd::serve::ServiceStats stats = service.stats();
  RunResult result;
  result.workers = workers;
  result.seconds = elapsed.count();
  result.jobs_per_min = elapsed.count() > 0
                            ? 60.0 * static_cast<double>(kJobs) /
                                  elapsed.count()
                            : 0.0;
  result.done = stats.done;
  result.failed = stats.failed;
  return result;
}

struct TransportResult;
bool write_json(const std::string& path, const std::vector<RunResult>& results,
                const std::vector<TransportResult>& transports);

struct TransportResult {
  std::string transport;
  double seconds = 0.0;
  double jobs_per_min = 0.0;
  std::int64_t done = 0;
};

std::string tiny_job_json(std::int64_t index) {
  bd::JsonObject job;
  job.set_int("spc", 2)
      .set_int("seed", 1234 + index)
      .set_int("width", 4)
      .set_int("attack_epochs", 1)
      .set_int("prune_rounds", 2)
      .set_int("finetune_epochs", 1)
      .set_int("train_per_class", 4)
      .set_int("test_per_class", 4);
  return job.str();
}

/// End-to-end jobs/min through one transport: daemon thread + retrying
/// client, 2 workers, same tiny jobs as the in-process table.
TransportResult run_transport(bool tcp) {
  bd::robust::Supervisor supervisor;
  bd::serve::ServerConfig config;
  config.service.workers = 2;
  config.service.queue_capacity = static_cast<std::size_t>(kJobs);
  config.service.tenant_quota = static_cast<std::size_t>(kJobs);
  config.service.cache_capacity = 0;
  config.service.supervisor = &supervisor;
  const std::string socket_path = "bench_serve_transport.sock";
  if (tcp) {
    config.socket_path.clear();
    config.listen_address = "127.0.0.1:0";  // ephemeral port
  } else {
    config.socket_path = socket_path;
  }

  bd::serve::SocketServer server(config);
  std::thread daemon([&server] { server.run(); });
  // Wait for the listener: TCP publishes its bound port, Unix its socket.
  for (int i = 0; i < 200; ++i) {
    if (tcp ? server.tcp_port() != 0
            : bd::serve::Client(socket_path).alive()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const bd::serve::Endpoint endpoint =
      tcp ? bd::serve::tcp_endpoint("127.0.0.1:" +
                                    std::to_string(server.tcp_port()))
          : bd::serve::unix_endpoint(socket_path);
  const bd::serve::Client client(endpoint);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::string> ids;
  for (std::int64_t i = 0; i < kJobs; ++i) {
    bd::JsonObject request;
    request.set("op", "submit")
        .set("tenant", "tenant" + std::to_string(i % kTenants))
        .set_raw("job", tiny_job_json(i));
    const bd::Json response =
        client.request_json_retry(request.str());
    if (!response.get_bool("ok", false)) {
      std::fprintf(stderr, "bench_serve: submit failed: %s\n",
                   response.get_string("message").c_str());
      std::exit(1);
    }
    ids.push_back(response.get_string("id"));
  }
  std::int64_t done = 0;
  for (const std::string& id : ids) {
    for (;;) {
      const bd::Json response = client.request_json_retry(
          bd::JsonObject().set("op", "wait").set("id", id).str());
      if (response.get_bool("ok", false)) {
        const bd::Json* job = response.find("job");
        if (job != nullptr && job->get_string("state") == "done") ++done;
        break;
      }
      if (response.get_string("error") != "wait_timeout") break;
    }
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - t0;

  client.request_json_retry(bd::JsonObject().set("op", "shutdown").str());
  daemon.join();

  TransportResult result;
  result.transport = tcp ? "tcp" : "unix";
  result.seconds = elapsed.count();
  result.jobs_per_min =
      elapsed.count() > 0
          ? 60.0 * static_cast<double>(kJobs) / elapsed.count()
          : 0.0;
  result.done = done;
  return result;
}

bool write_json(const std::string& path, const std::vector<RunResult>& results,
                const std::vector<TransportResult>& transports) {
  bd::JsonArray result_rows;
  for (const RunResult& r : results) {
    result_rows.push_raw(
        bd::JsonObject()
            .set_int("workers", static_cast<std::int64_t>(r.workers))
            .set_fixed("seconds", r.seconds, 3)
            .set_fixed("jobs_per_min", r.jobs_per_min, 2)
            .set_int("done", r.done)
            .set_int("failed", r.failed)
            .str());
  }
  bd::JsonArray transport_rows;
  for (const TransportResult& t : transports) {
    transport_rows.push_raw(bd::JsonObject()
                                .set("transport", t.transport)
                                .set_fixed("seconds", t.seconds, 3)
                                .set_fixed("jobs_per_min", t.jobs_per_min, 2)
                                .set_int("done", t.done)
                                .str());
  }
  const std::string json = bd::JsonObject()
                               .set("bench", "serve")
                               .set_int("jobs", kJobs)
                               .set_int("tenants", kTenants)
                               .set_raw("results", result_rows.str())
                               .set_raw("transports", transport_rows.str())
                               .str();
  return bd::write_file_atomic(path, json + '\n');
}

}  // namespace

int main() {
  // Keep the job size bench-friendly unless the caller asked otherwise.
  ::setenv("BDPROTO_MODE", "quick", /*overwrite=*/0);
  // One tensor thread: scaling below is worker-level, not kernel-level.
  bd::runtime::set_thread_count(1);

  std::vector<RunResult> results;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    const RunResult r = run_at(workers);
    std::printf("workers=%zu  %6.2fs  %8.1f jobs/min  done=%lld failed=%lld",
                r.workers, r.seconds, r.jobs_per_min,
                static_cast<long long>(r.done),
                static_cast<long long>(r.failed));
    if (!results.empty() && r.seconds > 0) {
      std::printf("  speedup=%.2fx", results.front().seconds / r.seconds);
    }
    std::printf("\n");
    results.push_back(r);
  }

  std::vector<TransportResult> transports;
  for (const bool tcp : {false, true}) {
    const TransportResult t = run_transport(tcp);
    std::printf("transport=%-5s  %6.2fs  %8.1f jobs/min  done=%lld\n",
                t.transport.c_str(), t.seconds, t.jobs_per_min,
                static_cast<long long>(t.done));
    transports.push_back(t);
  }

  const char* env_path = std::getenv("BDPROTO_BENCH_JSON");
  const std::string path = env_path != nullptr && env_path[0] != '\0'
                               ? env_path
                               : "BENCH_serve.json";
  if (!write_json(path, results, transports)) {
    std::fprintf(stderr, "bench_serve: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
