// DeviceServer: hosts a compiled program's device artifacts over TCP.
//
// The server side of the remote-device transport (DESIGN.md §9). It owns a
// listener plus one thread per connection; each connection is served
// sequentially in request order (responses echo the request id, so a
// pipelining client can stuff many kProcess frames down one connection and
// read the replies back in sequence). Artifacts live in the program's
// store; a per-artifact mutex serializes concurrent batches from different
// connections because device simulators (the RTL filter in particular) are
// stateful across process() calls.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/frame.h"
#include "net/protocol.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "runtime/liquid_compiler.h"

namespace lm::net {

class DeviceServer {
 public:
  struct Options {
    /// TCP port; 0 picks an ephemeral port (read it back from port()).
    uint16_t port = 0;
    std::string name = "lmdev";
    /// Fault injection: after serving this many kProcess requests the
    /// server abruptly drops every connection and stops accepting — the
    /// deterministic stand-in for kill -9 mid-stream. 0 disables.
    uint64_t fail_after = 0;
  };

  /// The program must outlive the server. (Two overloads, not a default
  /// `= {}` argument: nested-class member initializers are not usable in
  /// default arguments of the enclosing class.)
  explicit DeviceServer(const runtime::CompiledProgram& program)
      : DeviceServer(program, Options{}) {}
  DeviceServer(const runtime::CompiledProgram& program, Options opts);
  ~DeviceServer();

  DeviceServer(const DeviceServer&) = delete;
  DeviceServer& operator=(const DeviceServer&) = delete;

  /// Binds, listens and spawns the accept thread. Throws TransportError
  /// when the port cannot be bound.
  void start();

  /// Stops accepting, drops every connection and joins all threads.
  /// Idempotent.
  void stop();

  /// Simulated crash: closes the listener and every connection socket
  /// *without* joining — in-flight requests die mid-exchange exactly as
  /// they would under SIGKILL. stop() (or the destructor) joins later.
  void abrupt_stop();

  uint16_t port() const { return port_; }
  const std::string& endpoint() const { return endpoint_; }
  uint64_t fingerprint() const { return fingerprint_; }
  size_t artifact_count() const { return listing_.size(); }
  /// Artifacts addressable by content key over kArtifactGet (the compile
  /// service): populated from the program's artifact_keys map, so it is
  /// empty unless the program was compiled with caching active.
  size_t compile_service_entries() const { return artifact_payloads_.size(); }
  uint64_t requests_served() const {
    return served_.load(std::memory_order_relaxed);
  }
  /// True once abrupt_stop() ran (including via fail_after).
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  /// Server-local metrics (requests, errors, bytes). Safe to scrape from
  /// another thread while connections are being served.
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  /// Device-execute latency across every served batch (the time under the
  /// artifact lock, excluding decode/queue/encode).
  const obs::LatencyHistogram& exec_histogram() const { return exec_hist_; }
  int64_t active_connections() const {
    return active_conns_.load(std::memory_order_relaxed);
  }
  /// Live gauges for a TelemetryHub collector (lmdev's exporter). Execute
  /// latency is not among them: it is exported as a native histogram.
  void collect_telemetry(std::vector<obs::GaugeSample>& out) const;
  /// Native-histogram series for TelemetryHub::add_histograms:
  /// `server.exec_us` — fleet-side percentile math needs real buckets,
  /// not pre-baked percentile gauges that cannot be merged.
  void collect_histograms(std::vector<obs::HistogramSample>& out) const;

 private:
  struct Conn {
    Socket sock;
    std::thread th;
  };

  void accept_loop();
  void serve(Conn* conn);
  /// Builds the reply to one request frame (never throws; artifact
  /// failures become kError frames). Fills `tele` with server-side spans
  /// for traced kProcess requests; serve() adds the receive/send
  /// timestamps and piggybacks the block on the reply.
  Frame handle(const Frame& req, ReplyTelemetry& tele);
  void drop_all_connections();
  /// Microseconds since this server was constructed — the "server clock"
  /// every ReplyTelemetry timestamp is expressed in.
  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  const runtime::CompiledProgram& program_;
  Options opts_;
  uint64_t fingerprint_ = 0;
  std::vector<ArtifactListing> listing_;
  /// Compile-service inventory: content key → (backend, serialized
  /// artifact payload), pre-serialized at construction so kArtifactGet is
  /// a map lookup under no lock (the map is immutable once built).
  std::unordered_map<uint64_t, std::pair<std::string, std::vector<uint8_t>>>
      artifact_payloads_;
  /// One lock per served artifact (see file comment).
  std::unordered_map<runtime::Artifact*, std::unique_ptr<std::mutex>> locks_;

  std::unique_ptr<Listener> listener_;
  std::thread accept_thread_;
  uint16_t port_ = 0;
  std::string endpoint_;

  std::mutex conns_mu_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> crashed_{false};
  std::atomic<uint64_t> served_{0};
  std::atomic<int64_t> active_conns_{0};

  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  obs::MetricsRegistry metrics_;
  obs::MetricsRegistry::Counter& c_requests_ =
      metrics_.counter("server.requests");
  obs::MetricsRegistry::Counter& c_errors_ = metrics_.counter("server.errors");
  obs::MetricsRegistry::Counter& c_bytes_in_ =
      metrics_.counter("server.bytes_received");
  obs::MetricsRegistry::Counter& c_bytes_out_ =
      metrics_.counter("server.bytes_sent");
  obs::MetricsRegistry::Counter& c_artifact_fetches_ =
      metrics_.counter("server.artifact_fetches");
  obs::LatencyHistogram exec_hist_;
};

}  // namespace lm::net
