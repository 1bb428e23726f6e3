#include "serve/protocol.h"

#include "obs/obs.h"

namespace bd::serve {

namespace {

std::string ok_line(const JsonObject& body) { return body.str(); }

std::string stats_json(const SanitizeService& service) {
  const ServiceStats s = service.stats();
  JsonObject cache;
  cache.set_int("hits", s.cache.hits)
      .set_int("misses", s.cache.misses)
      .set_int("evictions", s.cache.evictions)
      .set_int("size", static_cast<std::int64_t>(s.cache.size))
      .set_int("capacity", static_cast<std::int64_t>(s.cache.capacity));
  JsonObject tenants;
  for (const auto& [tenant, load] : service.tenant_load()) {
    tenants.set_int(tenant, static_cast<std::int64_t>(load));
  }
  JsonObject body;
  body.set_bool("ok", true)
      .set_int("submitted", s.submitted)
      .set_int("done", s.done)
      .set_int("failed", s.failed)
      .set_int("cancelled", s.cancelled)
      .set_int("interrupted", s.interrupted)
      .set_int("deduplicated", s.deduplicated)
      .set_int("queue_depth", static_cast<std::int64_t>(s.queue_depth))
      .set_int("running", static_cast<std::int64_t>(s.running))
      .set_raw("cache", cache.str())
      .set_raw("tenants", tenants.str());
  return body.str();
}

}  // namespace

std::string protocol_error(const std::string& code,
                           const std::string& message) {
  JsonObject body;
  body.set_bool("ok", false).set("error", code).set("message", message);
  return body.str();
}

ProtocolResult Protocol::handle_line(const std::string& line) {
  ProtocolResult out;
  BD_OBS_COUNT("serve.requests", 1);

  if (line.size() > kMaxRequestBytes) {
    out.response = protocol_error(
        "oversized_request",
        "request line exceeds " + std::to_string(kMaxRequestBytes) +
            " bytes (got " + std::to_string(line.size()) + ")");
    return out;
  }

  Json request;
  std::string parse_error;
  if (!Json::parse(line, request, parse_error)) {
    out.response = protocol_error("bad_json", parse_error);
    return out;
  }
  if (!request.is_object()) {
    out.response = protocol_error("bad_request", "request must be an object");
    return out;
  }

  const std::string op = request.get_string("op");
  try {
    if (op == "ping") {
      JsonObject body;
      body.set_bool("ok", true).set("pong", "serve");
      out.response = ok_line(body);
    } else if (op == "submit") {
      const std::string tenant = request.get_string("tenant", "default");
      validate_tenant(tenant);
      const Json* job = request.find("job");
      if (job == nullptr || !job->is_object()) {
        throw BadRequest("submit requires a \"job\" object");
      }
      const JobSpec spec = parse_job_spec(*job, tenant);
      const SubmitResult result = service_.submit(spec);
      switch (result.admission) {
        case Admission::kAdmitted: {
          JsonObject body;
          body.set_bool("ok", true).set("id", result.id);
          if (result.deduplicated) {
            // Idempotent retry: report the existing job's current state
            // so the client can go straight to wait/status.
            JobRecord record;
            body.set("state", service_.status(result.id, record)
                                  ? job_state_name(record.state)
                                  : "queued");
            body.set_bool("dedup", true);
          } else {
            body.set("state", "queued");
          }
          out.response = ok_line(body);
          break;
        }
        case Admission::kQueueFull:
          out.response = protocol_error(
              "queue_full", "job queue is at capacity; retry with backoff");
          break;
        case Admission::kQuotaExceeded:
          out.response = protocol_error(
              "quota_exceeded",
              "tenant \"" + tenant + "\" is at its in-flight quota");
          break;
        case Admission::kClosed:
          out.response =
              protocol_error("closed", "daemon is shutting down");
          break;
      }
    } else if (op == "status") {
      const std::string id = request.get_string("id");
      JobRecord record;
      if (!service_.status(id, record)) {
        out.response =
            protocol_error("unknown_job", "no job with id \"" + id + "\"");
      } else {
        JsonObject body;
        body.set_bool("ok", true).set_raw("job", job_json(record));
        out.response = ok_line(body);
      }
    } else if (op == "jobs") {
      const std::string tenant = request.get_string("tenant");
      JsonArray jobs;
      for (const JobRecord& record : service_.jobs(tenant)) {
        jobs.push_raw(job_json(record));
      }
      JsonObject body;
      body.set_bool("ok", true).set_raw("jobs", jobs.str());
      out.response = ok_line(body);
    } else if (op == "cancel") {
      const std::string id = request.get_string("id");
      switch (service_.cancel(id)) {
        case CancelOutcome::kCancelledQueued: {
          JsonObject body;
          body.set_bool("ok", true).set("id", id).set("state", "cancelled");
          out.response = ok_line(body);
          break;
        }
        case CancelOutcome::kSignalled: {
          JsonObject body;
          body.set_bool("ok", true).set("id", id).set("state", "cancelling");
          out.response = ok_line(body);
          break;
        }
        case CancelOutcome::kUnknownJob:
          out.response =
              protocol_error("unknown_job", "no job with id \"" + id + "\"");
          break;
        case CancelOutcome::kAlreadyTerminal:
          out.response = protocol_error(
              "not_cancellable", "job \"" + id + "\" is already terminal");
          break;
      }
    } else if (op == "wait") {
      const std::string id = request.get_string("id");
      // Server-side wait is clamped so a connection thread can never
      // outlive the transport's patience by much; clients needing longer
      // waits poll or re-issue.
      double timeout = 30.0;
      if (const Json* t = request.find("timeout"); t != nullptr) {
        if (!t->is_number()) throw BadRequest("wait.timeout must be a number");
        timeout = t->as_number();
      }
      if (timeout <= 0.0 || timeout > 60.0) timeout = 60.0;
      switch (service_.wait(id, timeout)) {
        case WaitOutcome::kTerminal: {
          JobRecord record;
          if (service_.status(id, record)) {
            JsonObject body;
            body.set_bool("ok", true).set_raw("job", job_json(record));
            out.response = ok_line(body);
          } else {
            out.response = protocol_error("unknown_job",
                                          "no job with id \"" + id + "\"");
          }
          break;
        }
        case WaitOutcome::kTimeout:
          out.response = protocol_error(
              "wait_timeout",
              "job \"" + id + "\" not terminal within the wait budget");
          break;
        case WaitOutcome::kUnknown:
          out.response =
              protocol_error("unknown_job", "no job with id \"" + id + "\"");
          break;
      }
    } else if (op == "stats") {
      out.response = stats_json(service_);
    } else if (op == "shutdown") {
      const bool drain = request.get_bool("drain", true);
      JsonObject body;
      body.set_bool("ok", true).set("state", "shutting_down");
      body.set_bool("drain", drain);
      out.response = ok_line(body);
      out.shutdown = true;
      out.drain = drain;
    } else if (op.empty()) {
      out.response = protocol_error("bad_request", "missing \"op\"");
    } else {
      out.response =
          protocol_error("unknown_op", "unknown op \"" + op + "\"");
    }
  } catch (const BadRequest& e) {
    out.response = protocol_error("bad_request", e.what());
  } catch (const std::exception& e) {
    // Belt and braces: no request may take the daemon down.
    out.response = protocol_error("bad_request", e.what());
  }
  return out;
}

}  // namespace bd::serve
