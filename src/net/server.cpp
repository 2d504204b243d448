#include "net/server.h"

#include "cache/artifact_cache.h"
#include "cache/serialize.h"
#include "obs/trace.h"
#include "runtime/artifact.h"
#include "serde/batch.h"
#include "util/byte_buffer.h"

namespace lm::net {

using runtime::Artifact;
using runtime::DeviceKind;

namespace {

Frame error_frame(uint64_t request_id, const std::string& message) {
  Frame f;
  f.type = FrameType::kError;
  f.request_id = request_id;
  ByteWriter w;
  w.str(message);
  f.payload = w.take();
  return f;
}

}  // namespace

DeviceServer::DeviceServer(const runtime::CompiledProgram& program,
                           Options opts)
    : program_(program), opts_(std::move(opts)) {
  fingerprint_ = program_fingerprint(program_.store);
  listing_ = store_listing(program_.store);
  for (const auto& l : listing_) {
    Artifact* a = program_.store.find(l.task_id, l.device);
    if (a && !locks_.count(a)) {
      locks_.emplace(a, std::make_unique<std::mutex>());
    }
  }
  // Compile-service inventory: re-serialize every artifact the compiler
  // keyed, so clients can fetch compiled bytes by content key instead of
  // compiling locally. Empty when the program was compiled without caching.
  for (const auto& [label, key] : program_.artifact_keys) {
    auto colon = label.find(':');
    if (colon == std::string::npos) continue;
    std::string backend = label.substr(0, colon);
    std::string task = label.substr(colon + 1);
    try {
      if (backend == cache::kBackendBytecode) {
        if (program_.bytecode) {
          artifact_payloads_[key] = {
              backend, cache::encode_bytecode_module(*program_.bytecode)};
        }
      } else if (backend == cache::kBackendGpu) {
        auto* g = dynamic_cast<runtime::GpuKernelArtifact*>(
            program_.store.find(task, DeviceKind::kGpu));
        if (g) {
          artifact_payloads_[key] = {
              backend, cache::encode_kernel_program(g->program())};
        }
      } else if (backend == cache::kBackendFpga) {
        auto* fa = dynamic_cast<runtime::FpgaModuleArtifact*>(
            program_.store.find(task, DeviceKind::kFpga));
        if (fa) {
          fpga::FpgaFilter& filt = fa->filter();
          artifact_payloads_[key] = {
              backend, cache::encode_fpga_parts(filt.module(), filt.verilog(),
                                                filt.ports())};
        }
      }
    } catch (const std::exception&) {
      // An artifact that cannot be re-serialized is simply not served.
    }
  }
}

DeviceServer::~DeviceServer() { stop(); }

void DeviceServer::start() {
  listener_ = std::make_unique<Listener>(opts_.port);
  port_ = listener_->port();
  endpoint_ = "127.0.0.1:" + std::to_string(port_);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void DeviceServer::accept_loop() {
  for (;;) {
    Socket s = listener_->accept();
    if (!s.valid()) return;  // listener closed
    if (stopping_.load(std::memory_order_acquire)) return;
    auto conn = std::make_unique<Conn>();
    conn->sock = std::move(s);
    Conn* raw = conn.get();
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(std::move(conn));
    conns_.back()->th = std::thread([this, raw] { serve(raw); });
  }
}

void DeviceServer::serve(Conn* conn) {
  active_conns_.fetch_add(1, std::memory_order_relaxed);
  try {
    for (;;) {
      Frame req = read_frame(conn->sock, no_deadline());
      ReplyTelemetry tele;
      tele.recv_ts_us = now_us();
      c_requests_.add();
      c_bytes_in_.add(wire_size(req));
      Frame reply = handle(req, tele);
      reply.trace_id = req.trace_id;
      if (reply.type == FrameType::kError) c_errors_.add();
      // Every reply carries the server receive/send timestamps — they cost
      // two f64s and let heartbeats feed the client's clock-offset
      // estimator; spans ride along only for traced requests.
      tele.send_ts_us = now_us();
      reply.aux = encode_telemetry(tele);
      c_bytes_out_.add(wire_size(reply));
      write_frame(conn->sock, reply, no_deadline());
      if (reply.type == FrameType::kProcessOk) {
        // The batch payload came out of the wire pool (handle()'s kProcess
        // case); recycle its storage now that the bytes are on the socket.
        serde::wire_pool().release(std::move(reply.payload));
      }
      if (opts_.fail_after != 0 && req.type == FrameType::kProcess &&
          served_.load(std::memory_order_relaxed) >= opts_.fail_after) {
        abrupt_stop();  // fault injection: die after the Nth batch
        break;
      }
    }
  } catch (const TransportError&) {
    // Peer went away (or we were stopped): this connection is done.
  }
  active_conns_.fetch_sub(1, std::memory_order_relaxed);
}

Frame DeviceServer::handle(const Frame& req, ReplyTelemetry& tele) {
  try {
    switch (req.type) {
      case FrameType::kPing: {
        Frame f;
        f.type = FrameType::kPong;
        f.request_id = req.request_id;
        return f;
      }
      case FrameType::kHello: {
        HelloRequest h = decode_hello(req.payload);
        // fingerprint 0 is the compile-service wildcard: the client has not
        // compiled anything yet (it is here to *avoid* compiling), so there
        // is no program identity to check — content keys self-validate.
        if (h.fingerprint != 0 && h.fingerprint != fingerprint_) {
          return error_frame(
              req.request_id,
              "program fingerprint mismatch: client compiled a different "
              "program than this server (client " +
                  std::to_string(h.fingerprint) + ", server " +
                  std::to_string(fingerprint_) + ")");
        }
        Frame f;
        f.type = FrameType::kHelloOk;
        f.request_id = req.request_id;
        f.payload = encode_hello_reply(
            {opts_.name, static_cast<uint32_t>(listing_.size())});
        return f;
      }
      case FrameType::kList: {
        Frame f;
        f.type = FrameType::kListOk;
        f.request_id = req.request_id;
        f.payload = encode_listing(listing_);
        return f;
      }
      case FrameType::kArtifactGet: {
        ArtifactGetRequest a = decode_artifact_get(req.payload);
        auto it = artifact_payloads_.find(a.key);
        if (it == artifact_payloads_.end() || it->second.first != a.backend) {
          return error_frame(req.request_id,
                             "no artifact for key " + cache::key_hex(a.key) +
                                 " (" + a.backend + ":" + a.task_id + ")");
        }
        Frame f;
        f.type = FrameType::kArtifactOk;
        f.request_id = req.request_id;
        f.payload = it->second.second;
        c_artifact_fetches_.add();
        if (auto* rec = obs::TraceRecorder::current()) {
          rec->instant("net", "artifact-get",
                       obs::JsonArgs()
                           .add("key", cache::key_hex(a.key))
                           .add("backend", a.backend)
                           .add("task", a.task_id)
                           .str());
        }
        return f;
      }
      case FrameType::kProcess: {
        const bool traced = req.trace_id != 0;
        double t_decode0 = now_us();
        ProcessRequest p = decode_process(req.payload);
        Artifact* a = program_.store.find(p.task_id, p.device);
        if (!a) {
          return error_frame(req.request_id,
                             "no artifact for " + p.task_id + " on " +
                                 runtime::to_string(p.device));
        }
        obs::TraceSpan span;
        if (obs::TraceRecorder* rec = obs::TraceRecorder::current()) {
          span.begin(rec, "net", "serve:" + p.task_id);
        }
        const auto& mf = a->manifest();
        std::vector<bc::Value> in =
            serde::unpack_batch(p.batch, mf.param_types[0]);
        double t_queue0 = now_us();  // decode done, start waiting
        std::vector<bc::Value> out;
        double t_exec0 = 0, t_exec1 = 0;
        {
          // Serialize batches per artifact: device simulators are stateful.
          std::lock_guard<std::mutex> lock(*locks_.at(a));
          t_exec0 = now_us();  // lock acquired: queue wait is over
          out = a->process(in);
          t_exec1 = now_us();
        }
        Frame f;
        f.type = FrameType::kProcessOk;
        f.request_id = req.request_id;
        f.payload = serde::pack_batch(out, mf.return_type,
                                      serde::wire_pool());
        double t_encode1 = now_us();
        exec_hist_.record_ns(
            static_cast<uint64_t>((t_exec1 - t_exec0) * 1e3));
        if (traced) {
          // The four phases a client RTT hides, on the server clock. The
          // client shifts them onto its timeline with the same exchange's
          // NTP-midpoint offset and renders them in a per-endpoint lane.
          tele.spans.push_back({"decode", t_decode0, t_queue0 - t_decode0});
          tele.spans.push_back({"queue", t_queue0, t_exec0 - t_queue0});
          tele.spans.push_back({"execute", t_exec0, t_exec1 - t_exec0});
          tele.spans.push_back({"encode", t_exec1, t_encode1 - t_exec1});
        }
        served_.fetch_add(1, std::memory_order_relaxed);
        if (span.active()) {
          span.set_args(obs::JsonArgs()
                            .add("elements", static_cast<uint64_t>(in.size()))
                            .add("bytes_in",
                                 static_cast<uint64_t>(p.batch.size()))
                            .str());
        }
        return f;
      }
      default:
        return error_frame(req.request_id,
                           std::string("unexpected frame type: ") +
                               to_string(req.type));
    }
  } catch (const std::exception& e) {
    // Artifact faults and malformed payloads surface as protocol errors;
    // the connection stays up.
    return error_frame(req.request_id, e.what());
  }
}

void DeviceServer::collect_telemetry(
    std::vector<obs::GaugeSample>& out) const {
  out.emplace_back("server.active_connections",
                   static_cast<double>(active_connections()));
  out.emplace_back("server.requests_served",
                   static_cast<double>(requests_served()));
  out.emplace_back("server.artifacts",
                   static_cast<double>(listing_.size()));
  out.emplace_back("server.exec_batches",
                   static_cast<double>(exec_hist_.count()));
}

void DeviceServer::collect_histograms(
    std::vector<obs::HistogramSample>& out) const {
  out.push_back(obs::HistogramSample::from("server.exec_us", exec_hist_));
}

void DeviceServer::drop_all_connections() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto& c : conns_) c->sock.shutdown_both();
}

void DeviceServer::abrupt_stop() {
  crashed_.store(true, std::memory_order_release);
  stopping_.store(true, std::memory_order_release);
  if (listener_) listener_->close();
  drop_all_connections();
}

void DeviceServer::stop() {
  stopping_.store(true, std::memory_order_release);
  if (listener_) listener_->close();
  if (accept_thread_.joinable()) accept_thread_.join();
  drop_all_connections();
  // No new connections can appear now (accept thread joined), so the list
  // is stable without the lock — but hold it anyway for clarity.
  std::vector<std::unique_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& c : conns) {
    if (c->th.joinable()) {
      // A serve thread that called abrupt_stop() is in this list; joining
      // it from itself would deadlock — but abrupt_stop() returns out of
      // serve() immediately, so by the time stop() runs on another thread
      // the serve thread is exiting. Self-join cannot happen because
      // stop() is never called from a serve thread.
      c->th.join();
    }
  }
}

}  // namespace lm::net
