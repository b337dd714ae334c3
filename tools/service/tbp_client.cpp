// tbp-client — submit sampling requests to a tbpointd spool and collect
// the sealed manifest responses.
//
//   tbp-client submit <workload> --spool DIR [--scale N] [--seed S]
//              [--sms N] [--warps N] [--gto] [--id ID]
//              [--wait] [--timeout-s N] [-o PATH]
//       Drop one tbp-request-v1 line into the spool inbox.  Prints the
//       request id.  With --wait, polls for the response and writes it to
//       PATH (or stdout).
//   tbp-client wait <id> --spool DIR [--timeout-s N] [-o PATH]
//       Collect the response for a previously submitted id.
//
// Exit codes: 0 response delivered, 1 service reported an error (the error
// document is still written), 2 usage error or timeout.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "harness/cli.hpp"
#include "service/request.hpp"
#include "service/spool.hpp"
#include "support/atomic_file.hpp"
#include "support/walltime.hpp"

namespace {

using namespace tbp;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: tbp-client submit <workload> --spool DIR [--scale N] "
               "[--seed S] [--sms N] [--warps N] [--gto] [--id ID] [--wait] "
               "[--timeout-s N] [-o PATH]\n"
               "       tbp-client wait <id> --spool DIR [--timeout-s N] "
               "[-o PATH]\n");
  std::exit(2);
}

[[noreturn]] void bad_flag_value(const std::string& name, const Status& status) {
  std::fprintf(stderr, "tbp-client: invalid value for %s: %s\n", name.c_str(),
               status.message().c_str());
  std::exit(2);
}

std::uint64_t flag_u64_or_die(int argc, char** argv, const std::string& name,
                              std::uint64_t fallback, int base = 10) {
  const std::string v = harness::flag_value(argc, argv, name, "");
  if (v.empty()) return fallback;
  const Result<std::uint64_t> parsed = harness::parse_u64(v, base);
  if (!parsed.has_value()) bad_flag_value(name, parsed.status());
  return *parsed;
}

std::uint32_t flag_u32_or_die(int argc, char** argv, const std::string& name,
                              std::uint32_t fallback) {
  const std::string v = harness::flag_value(argc, argv, name, "");
  if (v.empty()) return fallback;
  const Result<std::uint32_t> parsed = harness::parse_u32(v);
  if (!parsed.has_value()) bad_flag_value(name, parsed.status());
  return *parsed;
}

/// Unique-enough default request id: fingerprint prefix (groups related
/// requests visibly in the spool) + pid + an in-process sequence number.
std::string default_request_id(const std::string& fingerprint) {
  static std::atomic<std::uint64_t> sequence{0};
  return fingerprint.substr(0, 12) + "-p" + std::to_string(::getpid()) + "-" +
         std::to_string(sequence.fetch_add(1, std::memory_order_relaxed));
}

/// Delivers response bytes to -o PATH or stdout; exit code 1 when the
/// response is a service error document.
int deliver_response(int argc, char** argv, const std::string& bytes) {
  const std::string out_path = harness::flag_value(argc, argv, "-o", "");
  if (!out_path.empty()) {
    const Status wrote =
        io::write_file_atomic(std::filesystem::path(out_path), bytes);
    if (!wrote.ok()) {
      std::fprintf(stderr, "tbp-client: cannot write %s: %s\n",
                   out_path.c_str(), wrote.to_string().c_str());
      return 2;
    }
  } else {
    std::fwrite(bytes.data(), 1, bytes.size(), stdout);
  }
  const Status service_error = service::response_error(bytes);
  if (!service_error.ok()) {
    std::fprintf(stderr, "tbp-client: service error: %s\n",
                 service_error.to_string().c_str());
    return 1;
  }
  return 0;
}

/// Polls the spool outbox until the response lands or the timeout passes.
int wait_for_response(int argc, char** argv, const std::string& spool,
                      const std::string& id) {
  const double timeout_s = static_cast<double>(
      flag_u64_or_die(argc, argv, "--timeout-s", 300));
  const timing::WallTimer timer;
  for (;;) {
    Result<std::string> response =
        service::try_read_response(std::filesystem::path(spool), id);
    if (response.has_value()) {
      return deliver_response(argc, argv, *response);
    }
    if (response.status().code() != StatusCode::kNotFound) {
      std::fprintf(stderr, "tbp-client: %s\n",
                   response.status().to_string().c_str());
      return 2;
    }
    if (timer.seconds() > timeout_s) {
      std::fprintf(stderr, "tbp-client: timed out after %.0fs waiting for %s\n",
                   timeout_s, id.c_str());
      return 2;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

int cmd_submit(int argc, char** argv) {
  if (argc < 3) usage();
  const std::string spool = harness::flag_value(argc, argv, "--spool", "");
  if (spool.empty()) usage();

  service::RequestSpec spec;
  spec.workload = argv[2];
  spec.scale.divisor =
      flag_u32_or_die(argc, argv, "--scale", spec.scale.divisor);
  spec.scale.seed =
      flag_u64_or_die(argc, argv, "--seed", spec.scale.seed, /*base=*/0);
  spec.sms = flag_u32_or_die(argc, argv, "--sms", spec.sms);
  spec.warps = flag_u32_or_die(argc, argv, "--warps", spec.warps);
  spec.gto = harness::has_flag(argc, argv, "--gto");

  // Validate locally (round-trip through the wire parser) so typos fail
  // here with a message instead of as a spooled error response.
  const std::string line = service::spec_canonical_line(spec);
  if (const Result<service::RequestSpec> parsed =
          service::parse_request(line);
      !parsed.has_value()) {
    std::fprintf(stderr, "tbp-client: %s\n",
                 parsed.status().to_string().c_str());
    return 2;
  }

  std::string id = harness::flag_value(argc, argv, "--id", "");
  if (id.empty()) id = default_request_id(service::spec_fingerprint(spec));
  if (!service::valid_request_id(id)) {
    std::fprintf(stderr, "tbp-client: invalid request id '%s'\n", id.c_str());
    return 2;
  }

  const Status submitted =
      service::submit_request(std::filesystem::path(spool), id, line);
  if (!submitted.ok()) {
    std::fprintf(stderr, "tbp-client: %s\n", submitted.to_string().c_str());
    return 2;
  }
  std::printf("submitted %s\n", id.c_str());
  std::fflush(stdout);

  if (!harness::has_flag(argc, argv, "--wait")) return 0;
  return wait_for_response(argc, argv, spool, id);
}

int cmd_wait(int argc, char** argv) {
  if (argc < 3) usage();
  const std::string spool = harness::flag_value(argc, argv, "--spool", "");
  if (spool.empty()) usage();
  const std::string id = argv[2];
  if (!service::valid_request_id(id)) {
    std::fprintf(stderr, "tbp-client: invalid request id '%s'\n", id.c_str());
    return 2;
  }
  return wait_for_response(argc, argv, spool, id);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  if (command == "submit") return cmd_submit(argc, argv);
  if (command == "wait") return cmd_wait(argc, argv);
  usage();
}
