#include "baselines/ktls.hpp"

#include <cassert>

namespace smt::baselines {

KtlsEndpoint::KtlsEndpoint(stack::Host& host, std::uint16_t port,
                           KtlsConfig config)
    : host_(host), config_(std::move(config)), tcp_(host, port) {
  tcp_.set_on_data([this](ConnId conn, Bytes data) {
    on_stream_data(conn, std::move(data));
  });
  tcp_.set_on_accept([this](ConnId conn) {
    if (on_accept_) on_accept_(conn);
  });
  if (config_.hw_offload) {
    tcp_.set_pre_post([this](ConnId conn, std::size_t queue,
                             sim::SegmentDescriptor& desc,
                             stack::CpuCore* core) {
      const auto it = sessions_.find(conn);
      if (it == sessions_.end()) return;
      const SessionState& state = it->second;
      host_.flow_contexts().bind_tx(
          {sim::Proto::tcp, conn, std::uint32_t(queue)}, state.suite,
          state.tx->keys(), desc, core);
    });
  }
}

KtlsEndpoint::~KtlsEndpoint() {
  // Return every leased NIC context to the host-wide pool.
  if (!config_.hw_offload) return;
  for (const auto& [conn, session] : sessions_) {
    host_.flow_contexts().invalidate_session(sim::Proto::tcp, conn);
  }
}

Status KtlsEndpoint::register_session(ConnId conn, tls::CipherSuite suite,
                                      const tls::TrafficKeys& tx_keys,
                                      const tls::TrafficKeys& rx_keys) {
  SessionState state;
  state.suite = suite;
  state.tx.emplace(suite, tx_keys);
  state.rx.emplace(suite, rx_keys);
  if (config_.hw_offload) {
    // Lease the connection's TX context up front, uncharged (setsockopt
    // programs it); every post re-binds it, re-establishing after loss.
    const auto flow = tcp_.flow_of(conn);
    if (!flow) return make_error(Errc::not_connected, "no such connection");
    const auto lease = host_.flow_contexts().acquire(
        {sim::Proto::tcp, conn,
         std::uint32_t(host_.nic().tx_queue_for(*flow))},
        suite, tx_keys, 0);
    if (!lease.ok()) return lease.error();
  }
  sessions_[conn] = std::move(state);
  return Status::success();
}

Status KtlsEndpoint::send(ConnId conn, Bytes plaintext,
                          stack::CpuCore* app_core) {
  auto it = sessions_.find(conn);
  if (it == sessions_.end() || !it->second.rx) {
    return make_error(Errc::not_connected, "no kTLS session on connection");
  }
  SessionState& state = it->second;
  const auto& costs = host_.costs();
  // A record must fit one NIC segment: TCP aligns offloaded records to
  // segments (§4.3), and without TSO a segment is one MTU packet (§7).
  const std::size_t max_record = std::min(
      tls::kMaxRecordPayload,
      host_.nic().config().max_segment_bytes() -
          tls::record_overhead(state.suite));

  // The stream's final size is known: reserve it once, then write every
  // record straight into it.
  const std::size_t n_records = std::max<std::size_t>(
      1, (plaintext.size() + max_record - 1) / max_record);
  Bytes stream;
  stream.reserve(plaintext.size() +
                 n_records * tls::record_overhead(state.suite));
  std::vector<transport::TcpEndpoint::RecordMark> marks;
  std::size_t offset = 0;
  do {
    const std::size_t take =
        std::min(max_record, plaintext.size() - offset);
    const ByteView chunk(plaintext.data() + offset, take);
    const std::uint64_t seq = state.tx_seq++;
    if (config_.hw_offload) {
      // Plaintext record shell; the NIC encrypts in line.
      marks.push_back(
          {stream.size(), take + tls::record_overhead(state.suite), take + 1,
           seq});
      tls::append_record_shell(stream, tls::ContentType::application_data,
                               chunk, 0);
    } else {
      state.tx->seal_into(seq, tls::ContentType::application_data, chunk, 0,
                          stream);
    }
    offset += take;
  } while (offset < plaintext.size());
  stats_.records_sent += n_records;

  if (app_core != nullptr) {
    if (config_.hw_offload) {
      app_core->charge(costs.offload_metadata * SimDuration(n_records));
    } else {
      app_core->charge(costs.aead_sw_cost(stream.size(), n_records));
    }
    if (config_.extra_record_cost > 0) {
      app_core->charge(config_.extra_record_cost * SimDuration(n_records));
    }
  }

  tcp_.send(conn, std::move(stream), app_core, std::move(marks));
  return Status::success();
}

void KtlsEndpoint::on_stream_data(ConnId conn, Bytes data) {
  auto it = sessions_.find(conn);
  if (it == sessions_.end()) return;  // keys not registered yet
  SessionState& state = it->second;
  if (!state.rx) return;  // dropped by an earlier receive failure
  // A receive failure drops the session: later data is ignored and send()
  // fails. Only its receive half goes, since TCP may still retransmit
  // records bound to the TX context.
  const auto drop = [&] {
    ++stats_.decrypt_failures;
    state.rx.reset();
    state.rx_stream = Bytes();
  };
  append(state.rx_stream, data);

  // Locate and decrypt complete records. Receive-side crypto is software
  // for both kTLS and SMT (§5, §7), charged to the flow's softirq core.
  Bytes delivered;
  std::size_t records = 0;
  std::size_t consumed_bytes = 0;
  while (state.rx_stream.size() >= tls::kRecordHeaderSize) {
    const auto body_len = tls::parse_record_length(
        ByteView(state.rx_stream.data(), tls::kRecordHeaderSize));
    if (!body_len.ok()) {  // stream desync
      drop();
      return;
    }
    const std::size_t record_len = tls::kRecordHeaderSize + body_len.value();
    if (state.rx_stream.size() < record_len) break;

    auto opened = state.rx->open_into(
        state.rx_seq, ByteView(state.rx_stream.data(), record_len), delivered);
    if (!opened.ok()) {
      drop();
      return;
    }
    ++state.rx_seq;
    ++records;
    ++stats_.records_received;
    consumed_bytes += record_len;
    state.rx_stream.erase(state.rx_stream.begin(),
                          state.rx_stream.begin() + std::ptrdiff_t(record_len));
  }

  if (records == 0) return;

  const auto flow = tcp_.flow_of(conn);
  const auto& costs = host_.costs();
  SimDuration cost = costs.ktls_frame_locate * SimDuration(records) +
                     costs.aead_sw_cost(consumed_bytes, records);
  if (config_.extra_record_cost > 0) {
    cost += config_.extra_record_cost * SimDuration(records);
  }
  stack::CpuCore& core = flow ? host_.softirq_for_flow(*flow)
                              : host_.softirq_core(0);
  core.run(cost, [this, conn, delivered = std::move(delivered)]() mutable {
    if (on_data_) on_data_(conn, std::move(delivered));
  });
}

}  // namespace smt::baselines
