#include "apps/rpc.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <iterator>
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

/// Every per-transport fact the fabric prints or branches on, in
/// TransportKind's declaration order.
struct TransportInfo {
  TransportKind kind;
  const char* key;   // scenario files and JSON metrics
  const char* name;  // printed tables
  bool message_based;
  bool encrypted;
};

constexpr TransportInfo kTransports[] = {
    {TransportKind::tcp, "tcp", "TCP", false, false},
    {TransportKind::ktls_sw, "ktls_sw", "kTLS-sw", false, true},
    {TransportKind::ktls_hw, "ktls_hw", "kTLS-hw", false, true},
    {TransportKind::homa, "homa", "Homa", true, false},
    {TransportKind::smt_sw, "smt_sw", "SMT-sw", true, true},
    {TransportKind::smt_hw, "smt_hw", "SMT-hw", true, true},
    {TransportKind::tcpls, "tcpls", "TCPLS", false, true},
};

constexpr bool table_follows_enum() {
  for (std::size_t i = 0; i < std::size(kTransports); ++i) {
    if (std::size_t(kTransports[i].kind) != i) return false;
  }
  return std::size(kTransports) == std::size_t(TransportKind::tcpls) + 1;
}
static_assert(table_follows_enum(),
              "kTransports lists every TransportKind in declaration order");

const TransportInfo& info(TransportKind kind) noexcept {
  return kTransports[std::size_t(kind)];
}

}  // namespace

const char* transport_name(TransportKind kind) noexcept {
  return info(kind).name;
}

const char* transport_key(TransportKind kind) noexcept {
  return info(kind).key;
}

Result<TransportKind> parse_transport(std::string_view name) {
  std::string keys;
  for (const TransportInfo& t : kTransports) {
    if (name == t.key) return t.kind;
    if (!keys.empty()) keys += ", ";
    keys += t.key;
  }
  return make_error(Errc::invalid_argument,
                    "unknown transport '" + std::string(name) +
                        "' (expected one of " + keys + ")");
}

bool is_message_based(TransportKind kind) noexcept {
  return info(kind).message_based;
}

bool is_encrypted(TransportKind kind) noexcept {
  return info(kind).encrypted;
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
  build_endpoint(server_);
  for (Node& client : clients_) build_endpoint(client);
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
    on_message(node, Route{0, meta.peer}, std::move(data));
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

std::uint64_t RpcFabric::open_stream(Node& node) {
  std::uint64_t conn = 0;
  if (node.tcp) {
    conn = node.tcp->connect(server_.ip, kServerPort);
  } else if (node.ktls) {
    conn = node.ktls->connect(server_.ip, kServerPort);
    const Status st = node.ktls->register_session(conn, suite_,
                                                  client_tx_keys_,
                                                  server_tx_keys_);
    assert(st.ok());
    (void)st;
  } else {
    return 0;  // message transports address the server, not a connection
  }
  node.streams.try_emplace(conn);
  return conn;
}

void RpcFabric::send(Node& node, const Route& route, Bytes message,
                     stack::CpuCore& core) {
  bool sent = true;
  switch (config_.kind) {
    case TransportKind::tcp:
      node.tcp->send(route.conn, frame_message(message), &core);
      break;
    case TransportKind::ktls_sw:
    case TransportKind::ktls_hw:
    case TransportKind::tcpls:
      sent = node.ktls->send(route.conn, frame_message(message), &core).ok();
      break;
    case TransportKind::homa:
      sent = node.homa->send_message(route.peer, std::move(message), &core)
                 .ok();
      break;
    case TransportKind::smt_sw:
    case TransportKind::smt_hw:
      sent =
          node.smt->send_message(route.peer, std::move(message), &core).ok();
      break;
  }
  assert(sent);
  (void)sent;
}

void RpcFabric::on_stream_data(Node& node, std::uint64_t conn, Bytes data) {
  auto it = node.streams.find(conn);
  if (it == node.streams.end()) {
    // A client's streams live from open_stream to ~RpcChannel: late bytes
    // for a closed channel are dropped. The server learns a connection
    // from its first bytes and gives it the next app core.
    if (&node != &server_) return;
    it = node.streams.emplace(conn, Stream{{}, next_server_core_++}).first;
  }
  Stream& stream = it->second;
  append(stream.rx, data);
  while (auto message = extract_frame(stream.rx)) {
    on_message(node, Route{conn, {}}, std::move(*message));
  }
}

void RpcFabric::on_message(Node& node, const Route& route, Bytes message) {
  if (&node == &server_) {
    server_handle_message(route, message);
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

void RpcFabric::server_handle_message(const Route& route, ByteView message) {
  // A stream's requests run on the app core its connection was given; a
  // message request takes the next one as it arrives.
  const bool stream = !is_message_based(config_.kind);
  const std::size_t core_hint = stream
                                    ? server_.streams.at(route.conn).app_core
                                    : next_server_core_++;
  if (message.size() < kRpcHeader) return;
  const std::uint64_t corr = load_u64be(message.data());
  const std::uint32_t resp_len = load_u32be(message.data() + 8);
  const ByteView payload = message.subspan(kRpcHeader);

  // Completes the RPC once the handler produced a result: charges wakeup +
  // dispatch + handler CPU on a server app thread, then sends the reply
  // from that context.
  auto complete = [this, route, stream, corr, resp_len,
                   core_hint](RpcReply result) {
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
    const SimDuration framing = stream ? costs.stream_app_framing : 0;
    core.run(costs.wakeup + costs.epoll_dispatch + framing + result.cpu_cost,
             [this, route, stream, &core,
              response = std::move(response)]() mutable {
               // A message reply leaves from the core next_server_core_
               // names when it is sent, not from the one that ran its
               // handler: a known quirk, kept so results do not move.
               send(server_, route, std::move(response),
                    stream ? core : server_core_for(next_server_core_));
             });
  };

  if (async_handler_) {
    async_handler_(payload, std::move(complete));
  } else {
    complete(handler_(payload));
  }
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
      app_core_(app_core_index),
      route_{fabric.open_stream(node()),
             transport::PeerAddr{fabric.server_.ip, kServerPort}} {}

RpcChannel::~RpcChannel() {
  fabric_.channels_.erase(channel_id_);
  node().streams.erase(route_.conn);
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
  fabric_.send(node(), route_, std::move(message),
               node().host->app_core(app_core_));
}

void RpcChannel::on_response(Bytes message) {
  const std::uint64_t corr = load_u64be(message.data());
  const auto it = pending_.find(corr);
  if (it == pending_.end()) return;
  Pending pending = std::move(it->second);
  pending_.erase(it);

  // Application wakeup on the client thread completes the RPC.
  stack::CpuCore& core = node().host->app_core(app_core_);
  const SimTime issued = pending.issued_at;
  // The payload follows the 8-byte correlation id: drop the id in place.
  message.erase(message.begin(), message.begin() + 8);
  core.run(node().host->costs().wakeup,
           [this, issued, done = std::move(pending.done),
            payload = std::move(message)]() mutable {
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
