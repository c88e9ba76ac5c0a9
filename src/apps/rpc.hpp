// Unified RPC fabric over every transport the paper compares (§5):
//
//   TCP | kTLS-sw | kTLS-hw | Homa | SMT-sw | SMT-hw | TCPLS-like
//
// One abstraction backs all benches and example applications:
//   * RpcFabric — N client hosts and one server host over a topology, a
//     transport per client/server pair, sessions keyed by a real TLS 1.3
//     handshake, and a server-side request handler. The classic two-host
//     constructors build a degenerate 2-host topology through
//     stack::TopologyBuilder and are byte-identical to the historical
//     hand-wired form; the topology constructor runs many-clients ->
//     one-server over an arbitrary fabric (incast).
//   * RpcChannel — a client-side slot issuing request/response calls and
//     reporting virtual-time RTTs.
//   * ClosedLoop — the benches' and tests' one closed-loop driver: N
//     channels per client, each reissuing when its reply lands.
//
// Wire protocol (identical across transports):
//   request  := corr_id(8) | resp_len(4) | payload
//   response := corr_id(8) | payload(resp_len)
// corr_id's upper 32 bits name the client's channel.
//
// Every transport takes one route. A message leaves through one send, the
// only code that tells the seven apart, and arrives at one on_message: the
// server serves it, a client hands it to the channel its corr_id names.
// The one difference is framing: a stream transport (TCP, kTLS, TCPLS)
// length-prefixes each message on a connection per channel and each host
// reassembles it (the framing RPC-over-TCP protocols need, §2); a message
// transport (Homa, SMT) carries it whole.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "baselines/ktls.hpp"
#include "common/hash.hpp"
#include "crypto/drbg.hpp"
#include "netsim/link.hpp"
#include "netsim/shard.hpp"
#include "smt/endpoint.hpp"
#include "stack/topology.hpp"
#include "tls/engine.hpp"
#include "transport/homa/homa.hpp"
#include "transport/tcp/tcp.hpp"

namespace smt::apps {

enum class TransportKind {
  tcp,       // plaintext TCP (baseline)
  ktls_sw,   // TLS over TCP, software crypto
  ktls_hw,   // TLS over TCP, NIC TX offload
  homa,      // plaintext Homa (baseline)
  smt_sw,    // SMT, software crypto
  smt_hw,    // SMT, NIC TX offload
  tcpls,     // TCPLS-like (software-only, extra per-record cost)
};

const char* transport_name(TransportKind kind) noexcept;
/// Stable lower-case key ("smt_hw") for scenario files and JSON metrics.
const char* transport_key(TransportKind kind) noexcept;
/// Inverse of transport_key (accepts the WorkloadSpec::transport strings).
Result<TransportKind> parse_transport(std::string_view name);
bool is_message_based(TransportKind kind) noexcept;
bool is_encrypted(TransportKind kind) noexcept;

/// Server request handler: returns the response payload plus the
/// application-level CPU cost to charge (parsing, db lookup, ...).
struct RpcReply {
  Bytes payload;
  SimDuration cpu_cost = 0;
};
using RpcHandler = std::function<RpcReply(ByteView request)>;

/// Asynchronous variant for servers whose completion is event-driven
/// (e.g. the NVMe-oF target waiting on device reads).
using AsyncRpcHandler =
    std::function<void(ByteView request, std::function<void(RpcReply)>)>;

struct RpcFabricConfig {
  TransportKind kind = TransportKind::smt_sw;
  std::size_t client_app_cores = 12;  // paper §5.2
  std::size_t server_app_cores = 12;
  std::size_t softirq_cores = 4;
  /// Both hosts' NIC: MTU, TSO, TX/RX batching, coalescing, RSS and the
  /// flow-context table (see netsim/nic.hpp).
  sim::NicConfig nic;
  /// The client<->server link, both directions: bandwidth, propagation
  /// and the deterministic impairments of the scenario loader's [fault]
  /// section (see sim::FaultProfile).
  sim::LinkConfig link;
  /// irqbalance-style periodic IRQ rebalancing on BOTH hosts (0 = off):
  /// every period the hottest ring's vector migrates to the coldest
  /// softirq core, and a majority-load ring's indirection entries are
  /// spread — the single-flow steering fix (see stack/host.hpp).
  SimDuration irq_rebalance_period = 0;
  /// Serialise all server work onto app core 0 (mini-Redis's
  /// single-threaded model, §5.3).
  bool single_threaded_server = false;
};

/// The single mapping from the bench-facing config onto the layered
/// scenario (host template, edge link, workload transport): RpcFabric,
/// benches, and tests all validate through ScenarioConfig::validate().
stack::ScenarioConfig to_scenario(const RpcFabricConfig& config);
/// The per-host template (app cores parameterised: client vs server).
stack::HostConfig host_config_of(const RpcFabricConfig& config,
                                 std::size_t app_cores);

class RpcChannel;

class RpcFabric {
 public:
  /// The two-host testbed on a one-shard engine the fabric owns: drive it
  /// with loop().run().
  explicit RpcFabric(RpcFabricConfig config);

  /// Sharded form: the client host lives on engine.loop(client_shard) and
  /// the server host on engine.loop(server_shard); when the shards differ,
  /// the connecting link's packet hops become cross-shard mailbox posts
  /// (config.link.propagation must be >= engine.lookahead()). Drive the
  /// run with engine.run(). With client_shard == server_shard — in
  /// particular any --shards 1 engine — the fabric is byte-identical to
  /// RpcFabric(config).
  RpcFabric(RpcFabricConfig config, sim::ShardedEngine& engine,
            std::size_t client_shard, std::size_t server_shard);

  /// N-host form over an externally built topology: `server_index` serves,
  /// every host in `client_indices` runs a client endpoint (many clients
  /// -> one server, the incast shape). The topology's host configuration
  /// wins; only transport/workload knobs of `config` apply.
  RpcFabric(RpcFabricConfig config, stack::Topology& topology,
            std::size_t server_index, std::vector<std::size_t> client_indices);

  ~RpcFabric();

  RpcFabric(const RpcFabric&) = delete;
  RpcFabric& operator=(const RpcFabric&) = delete;

  /// Installs the server-side request handler (echo by default).
  void set_handler(RpcHandler handler) { handler_ = std::move(handler); }

  /// Installs an asynchronous handler (takes precedence when set).
  void set_async_handler(AsyncRpcHandler handler) {
    async_handler_ = std::move(handler);
  }

  /// Creates a client slot pinned to an app core of client 0.
  std::unique_ptr<RpcChannel> make_channel(std::size_t app_core_index);
  /// N-host form: a slot on client `client_index`.
  std::unique_ptr<RpcChannel> make_channel(std::size_t client_index,
                                           std::size_t app_core_index);

  /// The client-side event loop (the fabric's only loop on one shard).
  sim::EventLoop& loop() noexcept { return clients_.front().host->loop(); }
  stack::Host& client_host() noexcept { return *clients_.front().host; }
  stack::Host& client_host(std::size_t i) { return *clients_.at(i).host; }
  std::size_t client_count() const noexcept { return clients_.size(); }
  stack::Host& server_host() noexcept { return *server_.host; }
  /// The network the fabric runs over, owned or external.
  stack::Topology& topology() noexcept { return *topology_; }
  const RpcFabricConfig& config() const noexcept { return config_; }

  /// Total wall-clock the server spent on app cores + softirq (for §5.2
  /// CPU-usage accounting).
  std::uint64_t server_busy_ns() const {
    return server_.host->total_app_busy_ns() +
           server_.host->total_softirq_busy_ns();
  }
  /// Summed over every client host (one host in the two-host form).
  std::uint64_t client_busy_ns() const {
    std::uint64_t total = 0;
    for (const Node& client : clients_) {
      total += client.host->total_app_busy_ns() +
               client.host->total_softirq_busy_ns();
    }
    return total;
  }
  /// The IRQ-class slice of the busy totals (NIC interrupt servicing +
  /// doorbell MMIO) — subtract it to compare protocol/crypto CPU alone.
  std::uint64_t server_irq_ns() const {
    return server_.host->total_irq_busy_ns();
  }
  std::uint64_t client_irq_ns() const {
    std::uint64_t total = 0;
    for (const Node& client : clients_) {
      total += client.host->total_irq_busy_ns();
    }
    return total;
  }

 private:
  friend class RpcChannel;

  /// Where a message goes: the connection on a stream transport, the
  /// peer's address on a message transport (a channel's route holds both).
  struct Route {
    std::uint64_t conn = 0;
    transport::PeerAddr peer;
  };

  /// A connection's reassembly buffer; on the server, its requests' core.
  struct Stream {
    Bytes rx;
    std::size_t app_core = 0;
  };

  /// One host of the fabric, server or client, and its endpoint: exactly
  /// one of the endpoint pointers is set, per config_.kind (TCPLS runs on
  /// `ktls`).
  struct Node {
    stack::Host* host = nullptr;
    std::uint32_t ip = 0;
    std::unique_ptr<transport::TcpEndpoint> tcp;
    std::unique_ptr<baselines::KtlsEndpoint> ktls;
    std::unique_ptr<transport::HomaEndpoint> homa;
    std::unique_ptr<proto::SmtEndpoint> smt;
    // Stream transports' connections, per node because connection ids are
    // only unique per endpoint.
    std::unordered_map<std::uint64_t, Stream, TableHash> streams;
  };

  Status init_two_host(sim::ShardedEngine& engine, std::size_t client_shard,
                       std::size_t server_shard);
  Status init_topology(stack::Topology& topology, std::size_t server_index,
                       std::vector<std::size_t> client_indices);
  /// The constructors' shared tail: aborts on an init error, else runs
  /// the handshake and builds every endpoint.
  void finish_init(const Status& init);
  void establish_keys();
  void build_endpoint(Node& node);
  /// Connects a client's new stream to the server (0 on message transports).
  std::uint64_t open_stream(Node& node);
  /// The one place the transports differ: frames `message` onto the
  /// route's stream, or sends it whole to the route's peer.
  void send(Node& node, const Route& route, Bytes message,
            stack::CpuCore& core);
  /// Reassembles a stream's frames; each goes to on_message.
  void on_stream_data(Node& node, std::uint64_t conn, Bytes data);
  /// Every message: the server serves it, a client hands it to its channel.
  void on_message(Node& node, const Route& route, Bytes message);
  stack::CpuCore& server_core_for(std::size_t hint);
  void server_handle_message(const Route& route, ByteView message);

  RpcFabricConfig config_;
  std::unique_ptr<sim::ShardedEngine> owned_engine_;  // RpcFabric(config)
  crypto::HmacDrbg rng_{to_bytes(std::string_view("rpc-fabric-seed"))};
  std::unique_ptr<stack::Topology> owned_topology_;  // two-host forms
  stack::Topology* topology_ = nullptr;

  // Sized once by init_*: endpoint handlers hold references to nodes.
  std::vector<Node> clients_;
  Node server_;

  tls::TrafficKeys client_tx_keys_;  // from a real handshake
  tls::TrafficKeys server_tx_keys_;
  tls::CipherSuite suite_ = tls::CipherSuite::aes_128_gcm_sha256;

  RpcHandler handler_ = [](ByteView) { return RpcReply{}; };
  AsyncRpcHandler async_handler_;
  // By correlation prefix.
  std::unordered_map<std::uint64_t, RpcChannel*, TableHash> channels_;
  std::uint64_t next_channel_id_ = 1;
  std::size_t next_server_core_ = 0;
};

/// One client slot: issues calls and delivers RTT-stamped completions.
class RpcChannel {
 public:
  using DoneCallback = std::function<void(SimDuration rtt, Bytes response)>;

  ~RpcChannel();

  RpcChannel(const RpcChannel&) = delete;
  RpcChannel& operator=(const RpcChannel&) = delete;

  /// Issues one RPC: `request` payload, asking for `resp_len` bytes back.
  void call(Bytes request, std::uint32_t resp_len, DoneCallback done);

  std::size_t inflight() const noexcept { return pending_.size(); }

 private:
  friend class RpcFabric;
  RpcChannel(RpcFabric& fabric, std::uint64_t channel_id,
             std::size_t client_index, std::size_t app_core_index);

  /// `message` holds at least its 8-byte corr_id.
  void on_response(Bytes message);

  RpcFabric::Node& node() { return fabric_.clients_[client_]; }

  RpcFabric& fabric_;
  std::uint64_t channel_id_;
  std::size_t client_;   // index into fabric_.clients_
  std::size_t app_core_;
  std::uint64_t next_call_ = 0;
  RpcFabric::Route route_;  // its own connection, or the server's address

  struct Pending {
    SimTime issued_at;
    DoneCallback done;
  };
  std::unordered_map<std::uint64_t, Pending, TableHash> pending_;
};

/// The closed-loop workload shape behind the paper's RTT and throughput
/// figures (§5): every client keeps `channels_per_client` calls in flight,
/// one per channel, until it has issued `ops_per_client`. Requests are
/// `request_bytes` of 0x5a asking for `response_bytes` back.
struct ClosedLoopSpec {
  std::size_t channels_per_client = 1;
  std::size_t ops_per_client = 0;
  std::size_t request_bytes = 0;
  std::size_t response_bytes = 0;
};

struct ClosedLoopResult {
  struct Completion {
    SimTime at = 0;  // virtual time on the client's loop
    SimDuration rtt = 0;

    friend bool operator==(const Completion&, const Completion&) = default;
  };

  std::size_t issued = 0;
  std::uint64_t response_bytes = 0;
  /// Client-major; completion order within each client.
  std::vector<Completion> completions;

  /// The latest completion across all clients (0 if none completed).
  SimTime last_completion() const noexcept;

  friend bool operator==(const ClosedLoopResult&,
                         const ClosedLoopResult&) = default;
};

/// Drives a ClosedLoopSpec over every client of a fabric: each completion
/// reissues on its own channel from inside its callback. The caller runs
/// the loop (or engine) between start() and result().
///
/// Sharded runs: a completion touches only its own client's state, so
/// clients on different shard threads share no memory; result() merges
/// them after the run has joined.
class ClosedLoop {
 public:
  /// Creates channels_per_client channels on each client, client-major
  /// (channel c of client i sits on app core c). Issues nothing.
  ClosedLoop(RpcFabric& fabric, ClosedLoopSpec spec);

  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  /// Makes the first call on every channel, in slot order.
  void start();

  ClosedLoopResult result() const;

 private:
  struct Client {
    std::size_t issued = 0;
    std::uint64_t response_bytes = 0;
    std::vector<ClosedLoopResult::Completion> completions;
  };

  void issue(std::size_t slot);

  RpcFabric& fabric_;
  ClosedLoopSpec spec_;
  std::vector<std::unique_ptr<RpcChannel>> channels_;  // slot = client-major
  std::vector<Client> clients_;
};

}  // namespace smt::apps
