#include "apps/rpc.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>

namespace smt::apps {

namespace {

constexpr std::uint16_t kServerPort = 80;
constexpr std::uint16_t kClientPort = 1000;
constexpr std::size_t kRpcHeader = 12;  // corr(8) + resp_len(4)

Bytes frame_message(ByteView message) {
  Bytes out;
  out.reserve(4 + message.size());
  append_u32be(out, std::uint32_t(message.size()));
  append(out, message);
  return out;
}

/// Extracts one complete length-prefixed message, or nullopt.
std::optional<Bytes> extract_frame(Bytes& buffer) {
  if (buffer.size() < 4) return std::nullopt;
  const std::uint32_t len = load_u32be(buffer.data());
  if (buffer.size() < 4 + std::size_t(len)) return std::nullopt;
  Bytes message(buffer.begin() + 4, buffer.begin() + 4 + std::ptrdiff_t(len));
  buffer.erase(buffer.begin(), buffer.begin() + 4 + std::ptrdiff_t(len));
  return message;
}

/// The constructor form cannot return a Result; a configuration error is
/// still reported with its full message rather than a bare assert.
[[noreturn]] void fail_config(const Status& st) {
  std::fprintf(stderr, "RpcFabric configuration error: %s\n",
               st.message().c_str());
  std::abort();
}

}  // namespace

const char* transport_name(TransportKind kind) noexcept {
  switch (kind) {
    case TransportKind::tcp: return "TCP";
    case TransportKind::ktls_sw: return "kTLS-sw";
    case TransportKind::ktls_hw: return "kTLS-hw";
    case TransportKind::homa: return "Homa";
    case TransportKind::smt_sw: return "SMT-sw";
    case TransportKind::smt_hw: return "SMT-hw";
    case TransportKind::tcpls: return "TCPLS";
  }
  return "?";
}

const char* transport_key(TransportKind kind) noexcept {
  switch (kind) {
    case TransportKind::tcp: return "tcp";
    case TransportKind::ktls_sw: return "ktls_sw";
    case TransportKind::ktls_hw: return "ktls_hw";
    case TransportKind::homa: return "homa";
    case TransportKind::smt_sw: return "smt_sw";
    case TransportKind::smt_hw: return "smt_hw";
    case TransportKind::tcpls: return "tcpls";
  }
  return "?";
}

Result<TransportKind> parse_transport(std::string_view name) {
  for (const TransportKind kind :
       {TransportKind::tcp, TransportKind::ktls_sw, TransportKind::ktls_hw,
        TransportKind::homa, TransportKind::smt_sw, TransportKind::smt_hw,
        TransportKind::tcpls}) {
    if (name == transport_key(kind)) return kind;
  }
  return make_error(Errc::invalid_argument,
                    "unknown transport '" + std::string(name) +
                        "' (expected one of tcp, ktls_sw, ktls_hw, homa, "
                        "smt_sw, smt_hw, tcpls)");
}

bool is_message_based(TransportKind kind) noexcept {
  return kind == TransportKind::homa || kind == TransportKind::smt_sw ||
         kind == TransportKind::smt_hw;
}

bool is_encrypted(TransportKind kind) noexcept {
  return kind != TransportKind::tcp && kind != TransportKind::homa;
}

stack::HostConfig host_config_of(const RpcFabricConfig& config,
                                 std::size_t app_cores) {
  stack::HostConfig hc;
  hc.app_cores = app_cores;
  hc.softirq_cores = config.softirq_cores;
  hc.nic = config.nic;
  hc.irq_rebalance_period = config.irq_rebalance_period;
  return hc;
}

stack::ScenarioConfig to_scenario(const RpcFabricConfig& config) {
  stack::ScenarioConfig scen;  // topology defaults to the direct 2-host shape
  scen.host = host_config_of(config, config.client_app_cores);
  scen.edge_link = config.link;
  scen.workload.transport = transport_key(config.kind);
  return scen;
}

RpcFabric::RpcFabric(RpcFabricConfig config)
    : config_(std::move(config)),
      owned_engine_(std::make_unique<sim::ShardedEngine>(1)) {
  finish_init(init_two_host(*owned_engine_, 0, 0));
}

RpcFabric::RpcFabric(RpcFabricConfig config, sim::ShardedEngine& engine,
                     std::size_t client_shard, std::size_t server_shard)
    : config_(std::move(config)) {
  finish_init(init_two_host(engine, client_shard, server_shard));
}

RpcFabric::RpcFabric(RpcFabricConfig config, stack::Topology& topology,
                     std::size_t server_index,
                     std::vector<std::size_t> client_indices)
    : config_(std::move(config)) {
  finish_init(init_topology(topology, server_index, std::move(client_indices)));
}

RpcFabric::~RpcFabric() = default;

void RpcFabric::finish_init(const Status& init) {
  if (!init.ok()) fail_config(init);
  establish_keys();
  setup_transports();
}

Status RpcFabric::init_two_host(sim::ShardedEngine& engine,
                                std::size_t client_shard,
                                std::size_t server_shard) {
  // The classic two-host testbed is the builder's degenerate direct
  // topology: host 0 = client (ip 1), host 1 = server (ip 2). One knob
  // mapping (to_scenario / host_config_of) and one validation path.
  stack::TopologyBuilder builder(to_scenario(config_));
  builder.host_config(0, host_config_of(config_, config_.client_app_cores));
  builder.host_config(1, host_config_of(config_, config_.server_app_cores));
  builder.host_shard(0, client_shard).host_shard(1, server_shard);
  Result<std::unique_ptr<stack::Topology>> built = builder.build(engine);
  if (!built.ok()) return built.error();
  owned_topology_ = std::move(built).take();
  return init_topology(*owned_topology_, 1, {0});
}

Status RpcFabric::init_topology(stack::Topology& topology,
                                std::size_t server_index,
                                std::vector<std::size_t> client_indices) {
  if (client_indices.empty()) {
    return make_error(Errc::invalid_argument,
                      "rpc: at least one client host is required");
  }
  if (server_index >= topology.host_count()) {
    return make_error(Errc::invalid_argument,
                      "rpc: server host " + std::to_string(server_index) +
                          " out of range");
  }
  std::set<std::size_t> seen;
  for (const std::size_t index : client_indices) {
    if (index >= topology.host_count()) {
      return make_error(Errc::invalid_argument,
                        "rpc: client host " + std::to_string(index) +
                            " out of range");
    }
    if (index == server_index) {
      return make_error(Errc::invalid_argument,
                        "rpc: host " + std::to_string(index) +
                            " cannot be both client and server");
    }
    if (!seen.insert(index).second) {
      return make_error(Errc::invalid_argument,
                        "rpc: client host " + std::to_string(index) +
                            " listed twice");
    }
  }

  topology_ = &topology;
  server_.host = &topology.host(server_index);
  server_.ip = topology.ip_of(server_index);
  clients_.resize(client_indices.size());
  for (std::size_t i = 0; i < client_indices.size(); ++i) {
    clients_[i].host = &topology.host(client_indices[i]);
    clients_[i].ip = topology.ip_of(client_indices[i]);
  }
  return Status::success();
}

void RpcFabric::establish_keys() {
  if (!is_encrypted(config_.kind)) return;
  // One real TLS 1.3 handshake provides the session keys; connections in
  // the fabric reuse them (the handshake is off the measured path — the
  // paper's benches also run over established sessions, §4.2).
  auto ca = tls::CertificateAuthority::create("dc-root", rng_);
  const auto server_key = crypto::ecdsa_keypair_from_seed(rng_.generate(32));
  tls::CertChain chain;
  chain.certs.push_back(ca.issue(
      "server", crypto::encode_point(server_key.public_key), 0, 1u << 30));

  tls::ClientConfig cc;
  cc.server_name = "server";
  cc.trusted_ca = ca.public_key();
  cc.now = 100;
  tls::ServerConfig sc;
  sc.chain = chain;
  sc.sig_key = server_key;
  sc.trusted_ca = ca.public_key();
  sc.now = 100;

  tls::ClientHandshake client_hs(cc, rng_);
  tls::ServerHandshake server_hs(sc, rng_);
  auto f1 = client_hs.start();
  assert(f1.ok());
  auto sf = server_hs.on_client_flight(f1.value());
  assert(sf.ok());
  auto f2 = client_hs.on_server_flight(sf.value());
  assert(f2.ok());
  const Status done = server_hs.on_client_finished(f2.value());
  assert(done.ok());
  (void)done;

  suite_ = client_hs.secrets().suite;
  client_tx_keys_ = client_hs.secrets().client_keys;
  server_tx_keys_ = client_hs.secrets().server_keys;
}

void RpcFabric::setup_transports() {
  build_endpoint(server_);
  for (Node& client : clients_) build_endpoint(client);
}

void RpcFabric::build_endpoint(Node& node) {
  const bool server = &node == &server_;
  const std::uint16_t port = server ? kServerPort : kClientPort;
  // Endpoints take their segment and record limits from their own host's
  // NIC (NicConfig::max_segment_bytes()): over an external topology, the
  // hosts' NICs decide them, not this fabric's config.
  auto stream_handler = [this, &node](std::uint64_t conn, Bytes data) {
    on_stream_data(node, conn, std::move(data));
  };
  auto message_handler = [this, &node](const auto& meta, Bytes data) {
    on_message(node, meta.peer, std::move(data));
  };
  switch (config_.kind) {
    case TransportKind::tcp:
      node.tcp = std::make_unique<transport::TcpEndpoint>(*node.host, port);
      node.tcp->set_on_data(stream_handler);
      break;
    case TransportKind::ktls_sw:
    case TransportKind::ktls_hw: {
      baselines::KtlsConfig kc;
      // Only the client offloads in ktls_hw runs: the server seals its
      // responses in software, whereas an smt_hw server seals in the NIC.
      kc.hw_offload = !server && config_.kind == TransportKind::ktls_hw;
      node.ktls =
          std::make_unique<baselines::KtlsEndpoint>(*node.host, port, kc);
      break;
    }
    case TransportKind::tcpls:
      node.ktls = std::make_unique<baselines::TcplsEndpoint>(*node.host, port);
      break;
    case TransportKind::homa:
      node.homa = std::make_unique<transport::HomaEndpoint>(*node.host, port);
      node.homa->set_on_message(message_handler);
      break;
    case TransportKind::smt_sw:
    case TransportKind::smt_hw: {
      proto::SmtConfig pc;
      pc.hw_offload = config_.kind == TransportKind::smt_hw;
      node.smt = std::make_unique<proto::SmtEndpoint>(*node.host, port, pc);
      node.smt->set_on_message(message_handler);
      if (server) break;
      // The same handshake's keys back every session (the benches run
      // over established sessions).
      Status st = node.smt->register_session(
          transport::PeerAddr{server_.ip, kServerPort}, suite_,
          client_tx_keys_, server_tx_keys_);
      assert(st.ok());
      st = server_.smt->register_session(
          transport::PeerAddr{node.ip, kClientPort}, suite_, server_tx_keys_,
          client_tx_keys_);
      assert(st.ok());
      (void)st;
      break;
    }
  }
  if (node.ktls) {
    node.ktls->set_on_data(stream_handler);
    if (server) {
      node.ktls->set_on_accept([this](std::uint64_t conn) {
        const Status st = server_.ktls->register_session(
            conn, suite_, server_tx_keys_, client_tx_keys_);
        assert(st.ok());
        (void)st;
      });
    }
  }
}

void RpcFabric::on_stream_data(Node& node, std::uint64_t conn, Bytes data) {
  if (&node == &server_) {
    on_server_stream_data(conn, std::move(data));
    return;
  }
  const auto it = node.stream_channels.find(conn);
  if (it != node.stream_channels.end()) {
    it->second->on_stream_data(std::move(data));
  }
}

void RpcFabric::on_message(Node& node, transport::PeerAddr peer,
                           Bytes message) {
  if (&node == &server_) {
    on_server_message(peer, std::move(message));
    return;
  }
  if (message.size() < 8) return;
  const std::uint64_t corr = load_u64be(message.data());
  const auto it = channels_.find(corr >> 32);
  if (it != channels_.end()) it->second->on_response(std::move(message));
}

stack::CpuCore& RpcFabric::server_core_for(std::size_t hint) {
  if (config_.single_threaded_server) return server_.host->app_core(0);
  return server_.host->app_core(hint % server_.host->app_core_count());
}

void RpcFabric::server_handle_message(ByteView message,
                                      std::function<void(Bytes)> reply,
                                      std::size_t core_hint) {
  if (message.size() < kRpcHeader) return;
  const std::uint64_t corr = load_u64be(message.data());
  const std::uint32_t resp_len = load_u32be(message.data() + 8);
  const ByteView payload = message.subspan(kRpcHeader);

  // Completes the RPC once the handler produced a result: charges wakeup +
  // dispatch + handler CPU on a server app thread, then sends the reply
  // from that context.
  auto complete = [this, corr, resp_len, core_hint,
                   reply = std::move(reply)](RpcReply result) mutable {
    Bytes response;
    response.reserve(8 + std::max<std::size_t>(result.payload.size(), resp_len));
    append_u64be(response, corr);
    if (result.payload.empty()) {
      response.resize(8 + resp_len, 0x5a);  // echo server: synthesise bytes
    } else {
      append(response, result.payload);
    }
    stack::CpuCore& core = server_core_for(core_hint);
    const auto& costs = server_.host->costs();
    // Stream transports: the application reassembles messages from the
    // bytestream itself (§5.3 — Redis keeps partial-read state for TCP
    // clients but not for Homa/SMT ones).
    const SimDuration framing =
        is_message_based(config_.kind) ? 0 : costs.stream_app_framing;
    core.run(costs.wakeup + costs.epoll_dispatch + framing + result.cpu_cost,
             [reply = std::move(reply),
              response = std::move(response)]() mutable {
               reply(std::move(response));
             });
  };

  if (async_handler_) {
    async_handler_(payload, std::move(complete));
  } else {
    complete(handler_(payload));
  }
}

void RpcFabric::on_server_stream_data(std::uint64_t conn, Bytes data) {
  auto [it, created] = server_streams_.try_emplace(conn);
  if (created) it->second.app_core = next_server_core_++;
  StreamConnState& state = it->second;
  append(state.rx_buffer, data);

  while (auto message = extract_frame(state.rx_buffer)) {
    const std::size_t core_hint = state.app_core;
    server_handle_message(
        *message,
        [this, conn, core_hint](Bytes response) {
          stack::CpuCore& core = server_core_for(core_hint);
          const Bytes framed = frame_message(response);
          if (config_.kind == TransportKind::tcp) {
            server_.tcp->send(conn, framed, &core);
          } else {
            const Status st = server_.ktls->send(conn, framed, &core);
            assert(st.ok());
            (void)st;
          }
        },
        core_hint);
  }
}

void RpcFabric::on_server_message(transport::PeerAddr peer, Bytes message) {
  server_handle_message(
      message,
      [this, peer](Bytes response) {
        const std::size_t hint =
            config_.single_threaded_server
                ? 0
                : (next_server_core_ % server_.host->app_core_count());
        stack::CpuCore& core = server_core_for(hint);
        if (config_.kind == TransportKind::homa) {
          const auto st = server_.homa->send_message(peer, std::move(response),
                                                     &core);
          assert(st.ok());
          (void)st;
        } else {
          const auto st = server_.smt->send_message(peer, std::move(response),
                                                    &core);
          assert(st.ok());
          (void)st;
        }
      },
      next_server_core_++);
}

std::unique_ptr<RpcChannel> RpcFabric::make_channel(
    std::size_t app_core_index) {
  return make_channel(0, app_core_index);
}

std::unique_ptr<RpcChannel> RpcFabric::make_channel(
    std::size_t client_index, std::size_t app_core_index) {
  const std::uint64_t id = next_channel_id_++;
  stack::Host& host = *clients_.at(client_index).host;
  auto channel = std::unique_ptr<RpcChannel>(new RpcChannel(
      *this, id, client_index, app_core_index % host.app_core_count()));
  channels_[id] = channel.get();
  return channel;
}

RpcChannel::RpcChannel(RpcFabric& fabric, std::uint64_t channel_id,
                       std::size_t client_index, std::size_t app_core_index)
    : fabric_(fabric),
      channel_id_(channel_id),
      client_(client_index),
      app_core_(app_core_index) {
  switch (fabric_.config_.kind) {
    case TransportKind::tcp: {
      stream_conn_ = node().tcp->connect(fabric_.server_.ip, kServerPort);
      node().stream_channels[stream_conn_] = this;
      break;
    }
    case TransportKind::ktls_sw:
    case TransportKind::ktls_hw:
    case TransportKind::tcpls: {
      stream_conn_ = node().ktls->connect(fabric_.server_.ip, kServerPort);
      node().stream_channels[stream_conn_] = this;
      const Status st = node().ktls->register_session(
          stream_conn_, fabric_.suite_, fabric_.client_tx_keys_,
          fabric_.server_tx_keys_);
      assert(st.ok());
      (void)st;
      break;
    }
    default:
      message_port_ = kClientPort;
      break;
  }
}

RpcChannel::~RpcChannel() {
  fabric_.channels_.erase(channel_id_);
  if (stream_conn_ != 0) node().stream_channels.erase(stream_conn_);
}

void RpcChannel::call(Bytes request, std::uint32_t resp_len,
                      DoneCallback done) {
  const std::uint64_t corr = (channel_id_ << 32) | (next_call_++ & 0xffffffff);
  Bytes message;
  message.reserve(kRpcHeader + request.size());
  append_u64be(message, corr);
  append_u32be(message, resp_len);
  append(message, request);

  pending_[corr] = Pending{node().host->loop().now(), std::move(done)};

  stack::CpuCore& core = node().host->app_core(app_core_);
  switch (fabric_.config_.kind) {
    case TransportKind::tcp:
      node().tcp->send(stream_conn_, frame_message(message), &core);
      break;
    case TransportKind::ktls_sw:
    case TransportKind::ktls_hw:
    case TransportKind::tcpls: {
      const Status st =
          node().ktls->send(stream_conn_, frame_message(message), &core);
      assert(st.ok());
      (void)st;
      break;
    }
    case TransportKind::homa: {
      const auto st = node().homa->send_message(
          transport::PeerAddr{fabric_.server_.ip, kServerPort},
          std::move(message), &core);
      assert(st.ok());
      (void)st;
      break;
    }
    case TransportKind::smt_sw:
    case TransportKind::smt_hw: {
      const auto st = node().smt->send_message(
          transport::PeerAddr{fabric_.server_.ip, kServerPort},
          std::move(message), &core);
      assert(st.ok());
      (void)st;
      break;
    }
  }
}

void RpcChannel::on_stream_data(Bytes data) {
  append(rx_buffer_, data);
  while (auto message = extract_frame(rx_buffer_)) {
    on_response(std::move(*message));
  }
}

void RpcChannel::on_response(Bytes message) {
  if (message.size() < 8) return;
  const std::uint64_t corr = load_u64be(message.data());
  const auto it = pending_.find(corr);
  if (it == pending_.end()) return;
  Pending pending = std::move(it->second);
  pending_.erase(it);

  // Application wakeup on the client thread completes the RPC.
  stack::CpuCore& core = node().host->app_core(app_core_);
  const SimTime issued = pending.issued_at;
  Bytes payload(message.begin() + 8, message.end());
  core.run(node().host->costs().wakeup,
           [this, issued, done = std::move(pending.done),
            payload = std::move(payload)]() mutable {
             done(node().host->loop().now() - issued, std::move(payload));
           });
}

SimTime ClosedLoopResult::last_completion() const noexcept {
  SimTime last = 0;
  for (const Completion& c : completions) last = std::max(last, c.at);
  return last;
}

ClosedLoop::ClosedLoop(RpcFabric& fabric, ClosedLoopSpec spec)
    : fabric_(fabric), spec_(spec), clients_(fabric.client_count()) {
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    clients_[i].completions.reserve(spec_.ops_per_client);
    for (std::size_t c = 0; c < spec_.channels_per_client; ++c) {
      channels_.push_back(fabric_.make_channel(i, c));
    }
  }
}

void ClosedLoop::start() {
  for (std::size_t slot = 0; slot < channels_.size(); ++slot) issue(slot);
}

void ClosedLoop::issue(std::size_t slot) {
  Client& mine = clients_[slot / spec_.channels_per_client];
  if (mine.issued >= spec_.ops_per_client) return;
  ++mine.issued;
  // [this, slot] is 16 B, which std::function stores inline: the driver
  // adds no allocation per call.
  channels_[slot]->call(
      Bytes(spec_.request_bytes, 0x5a), std::uint32_t(spec_.response_bytes),
      [this, slot](SimDuration rtt, Bytes response) {
        const std::size_t client = slot / spec_.channels_per_client;
        Client& me = clients_[client];
        me.response_bytes += response.size();
        me.completions.push_back(
            {fabric_.client_host(client).loop().now(), rtt});
        issue(slot);
      });
}

ClosedLoopResult ClosedLoop::result() const {
  ClosedLoopResult r;
  for (const Client& c : clients_) {
    r.issued += c.issued;
    r.response_bytes += c.response_bytes;
    r.completions.insert(r.completions.end(), c.completions.begin(),
                         c.completions.end());
  }
  return r;
}

}  // namespace smt::apps
