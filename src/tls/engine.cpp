#include "tls/engine.hpp"

#include "crypto/hkdf.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace smt::tls {

namespace {

/// RAII timer writing a Table 2-style operation entry against the
/// config's injected clock. With a null clock the label is still recorded
/// (the breakdown's structure is load-bearing for tests and the fig12
/// operation set) with a 0 us duration — the engine itself never reads
/// host time, so handshake results stay deterministic (the determinism
/// linter bans wall clocks in src/).
class OpTimer {
 public:
  OpTimer(HandshakeTimings& timings, std::string label, OpClockFn clock)
      : timings_(timings),
        label_(std::move(label)),
        clock_(clock),
        start_ns_(clock ? clock() : 0) {}

  ~OpTimer() {
    const double us = clock_ ? double(clock_() - start_ns_) / 1e3 : 0.0;
    timings_.add(std::move(label_), us);
  }

  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

 private:
  HandshakeTimings& timings_;
  std::string label_;
  OpClockFn clock_;
  std::uint64_t start_ns_;
};

/// The PSK binder: HMAC(binder_key, SHA-256(CHLO serialised with an empty
/// binder field)). Structurally mirrors RFC 8446's partial-transcript
/// binder; the simplification is documented in messages.hpp.
Bytes compute_binder(const KeySchedule& schedule, bool external,
                     const ClientHello& hello) {
  ClientHello unbound = hello;
  unbound.psk_binder.clear();
  const Bytes digest = crypto::sha256(unbound.serialize());
  return crypto::hmac_sha256(schedule.binder_key(external), digest);
}

/// Derives the SMT 0-RTT key (§4.5.2): HKDF-Extract with the ticket id as
/// salt over the ECDH(client-ephemeral, server-long-term) output.
std::optional<Bytes> derive_smt_key(ByteView ticket_id,
                                    const crypto::U256& private_key,
                                    const crypto::AffinePoint& peer_public) {
  const auto z = crypto::ecdh_shared_secret(private_key, peer_public);
  if (!z) return std::nullopt;
  return crypto::hkdf_extract(ticket_id, *z);
}

}  // namespace

// --------------------------------------------------------------------------
// Client
// --------------------------------------------------------------------------

ClientHandshake::ClientHandshake(ClientConfig config, crypto::HmacDrbg& rng)
    : config_(std::move(config)), rng_(rng), schedule_(config_.suite) {}

Result<Bytes> ClientHandshake::start() {
  if (started_) {
    return make_error(Errc::protocol_violation, "start() called twice");
  }
  started_ = true;

  // C1.1 Key Gen — skipped entirely with pre-generated keys (§4.5.1).
  if (config_.pregen_ephemeral) {
    ephemeral_ = *config_.pregen_ephemeral;
  } else {
    OpTimer timer(timings_, "C1.1 Key Gen", config_.op_clock);
    ephemeral_ = crypto::ecdh_keypair_from_seed(rng_.generate(32));
  }

  ClientHello hello;
  {
    OpTimer timer(timings_, "C1.2 Others Gen", config_.op_clock);
    hello.random = rng_.generate(32);
    hello.suite = config_.suite;
    hello.key_share = crypto::encode_point(ephemeral_.public_key);
    hello.early_data = config_.early_data;
    hello.request_fs = config_.request_fs;
    hello.psk_ecdhe = config_.psk_ecdhe;
  }

  if (config_.smt_ticket && config_.psk) {
    return make_error(Errc::invalid_argument,
                      "SMT ticket and PSK are mutually exclusive");
  }

  if (config_.smt_ticket) {
    OpTimer timer(timings_, "C1.3 SMT-Key Derive", config_.op_clock);
    const auto server_pub =
        crypto::decode_point(config_.smt_ticket->server_longterm_pub);
    if (!server_pub) {
      return make_error(Errc::cert_invalid, "ticket ECDH share invalid");
    }
    hello.smt_ticket_id = config_.smt_ticket->id();
    const auto key = derive_smt_key(hello.smt_ticket_id,
                                    ephemeral_.private_key, *server_pub);
    if (!key) {
      return make_error(Errc::handshake_failed, "SMT key derivation failed");
    }
    smt_key_ = *key;
    schedule_.early(smt_key_);
    hello.psk_binder = compute_binder(schedule_, /*external=*/true, hello);
  } else if (config_.psk) {
    hello.psk_identity = config_.psk->identity;
    schedule_.early(config_.psk->key);
    hello.psk_binder = compute_binder(schedule_, /*external=*/false, hello);
  } else {
    schedule_.early({});
  }

  const Bytes flight = hello.serialize();
  transcript_.add(flight);

  if (config_.early_data && (config_.smt_ticket || config_.psk)) {
    secrets_.client_early_secret =
        schedule_.client_early_traffic_secret(transcript_.current());
    secrets_.client_early_keys =
        derive_traffic_keys(secrets_.client_early_secret, config_.suite);
  }
  return flight;
}

Result<Bytes> ClientHandshake::on_server_flight(ByteView flight) {
  if (!started_ || done_) {
    return make_error(Errc::protocol_violation, "unexpected server flight");
  }
  auto messages = split_flight(flight);
  if (!messages || messages->empty()) {
    return make_error(Errc::protocol_violation, "malformed server flight");
  }

  std::size_t index = 0;
  const auto& first = (*messages)[index];
  if (first.type != HandshakeType::server_hello) {
    return make_error(Errc::protocol_violation, "expected ServerHello");
  }

  std::optional<ServerHello> shlo;
  {
    OpTimer timer(timings_, "C2.1 Process SHLO", config_.op_clock);
    shlo = ServerHello::parse(first.body);
    if (!shlo) {
      return make_error(Errc::protocol_violation, "bad ServerHello");
    }
    // RFC 8446 §4.1.3: a server may only pick a suite the client offered.
    if (shlo->suite != config_.suite) {
      return make_error(Errc::protocol_violation, "cipher suite mismatch");
    }
    transcript_.add(first.raw);
  }
  ++index;

  if ((config_.psk || config_.smt_ticket) && !shlo->psk_accepted) {
    return make_error(Errc::handshake_failed, "server rejected PSK/ticket");
  }
  secrets_.early_data_accepted = shlo->early_data_accepted;

  // C2.2 ECDH Exchange.
  Bytes ecdhe_secret;
  if (!shlo->key_share.empty()) {
    OpTimer timer(timings_, "C2.2 ECDH Exchange", config_.op_clock);
    const auto server_share = crypto::decode_point(shlo->key_share);
    if (!server_share) {
      return make_error(Errc::handshake_failed, "bad server key share");
    }
    const auto z =
        crypto::ecdh_shared_secret(ephemeral_.private_key, *server_share);
    if (!z) {
      return make_error(Errc::handshake_failed, "ECDH failed");
    }
    ecdhe_secret = *z;
    secrets_.forward_secret = true;
  }

  Bytes server_hs_secret, client_hs_secret;
  {
    OpTimer timer(timings_, "C2.3 Secret Derive", config_.op_clock);
    schedule_.handshake(ecdhe_secret);
    const Bytes hs_hash = transcript_.current();
    server_hs_secret = schedule_.server_handshake_traffic_secret(hs_hash);
    client_hs_secret = schedule_.client_handshake_traffic_secret(hs_hash);
  }

  bool client_cert_requested = false;
  std::optional<CertChain> server_chain;

  for (; index < messages->size(); ++index) {
    const auto& msg = (*messages)[index];
    switch (msg.type) {
      case HandshakeType::encrypted_extensions: {
        const auto ee = EncryptedExtensions::parse(msg.body);
        if (!ee) {
          return make_error(Errc::protocol_violation, "bad EE");
        }
        client_cert_requested = ee->client_cert_requested;
        transcript_.add(msg.raw);
        break;
      }
      case HandshakeType::certificate: {
        std::optional<CertificateMsg> cert_msg;
        {
          OpTimer timer(timings_, "C3.1 Decode Cert", config_.op_clock);
          cert_msg = CertificateMsg::parse(msg.body);
          if (!cert_msg) {
            return make_error(Errc::cert_invalid, "bad Certificate message");
          }
        }
        {
          OpTimer timer(timings_, "C3.2 Verify Cert", config_.op_clock);
          const Status status =
              verify_chain(cert_msg->chain, config_.trusted_ca, config_.now,
                           config_.server_name);
          if (!status.ok()) return status.error();
        }
        server_chain = std::move(cert_msg->chain);
        transcript_.add(msg.raw);
        break;
      }
      case HandshakeType::certificate_verify: {
        if (!server_chain) {
          return make_error(Errc::protocol_violation,
                            "CertificateVerify without Certificate");
        }
        Bytes content;
        {
          OpTimer timer(timings_, "C4.1 Build Sign Data", config_.op_clock);
          content = certificate_verify_content(/*server=*/true,
                                               transcript_.current());
        }
        {
          OpTimer timer(timings_, "C4.2 Verify CertVerify", config_.op_clock);
          const auto cv = CertificateVerify::parse(msg.body);
          if (!cv) {
            return make_error(Errc::protocol_violation, "bad CertVerify");
          }
          const auto sig = crypto::EcdsaSignature::decode(cv->signature);
          const auto leaf_key =
              crypto::decode_point(server_chain->certs.front().public_key);
          if (!sig || !leaf_key ||
              !crypto::ecdsa_verify(*leaf_key, content, *sig)) {
            return make_error(Errc::handshake_failed,
                              "server CertificateVerify invalid");
          }
        }
        transcript_.add(msg.raw);
        break;
      }
      case HandshakeType::finished: {
        OpTimer timer(timings_, "C5 Process Finished", config_.op_clock);
        const auto fin = Finished::parse(msg.body);
        if (!fin) {
          return make_error(Errc::protocol_violation, "bad Finished");
        }
        const Bytes fin_key = derive_finished_key(server_hs_secret);
        const Bytes expected =
            finished_verify_data(fin_key, transcript_.current());
        if (!ct_equal(expected, fin->verify_data)) {
          return make_error(Errc::handshake_failed,
                            "server Finished verification failed");
        }
        transcript_.add(msg.raw);

        // Application secrets cover CHLO..ServerFinished.
        const Bytes ap_hash = transcript_.current();
        schedule_.master();
        secrets_.suite = config_.suite;
        secrets_.client_app_secret =
            schedule_.client_app_traffic_secret(ap_hash);
        secrets_.server_app_secret =
            schedule_.server_app_traffic_secret(ap_hash);
        secrets_.client_keys =
            derive_traffic_keys(secrets_.client_app_secret, config_.suite);
        secrets_.server_keys =
            derive_traffic_keys(secrets_.server_app_secret, config_.suite);
        break;
      }
      default:
        return make_error(Errc::protocol_violation,
                          "unexpected message in server flight");
    }
  }

  if (secrets_.client_app_secret.empty()) {
    return make_error(Errc::handshake_failed, "server flight lacked Finished");
  }

  // Build the client's second flight.
  Bytes out;
  if (client_cert_requested) {
    if (!config_.identity) {
      return make_error(Errc::handshake_failed,
                        "server requires a client certificate");
    }
    CertificateMsg cert_msg{config_.identity->chain};
    const Bytes cert_bytes = cert_msg.serialize();
    transcript_.add(cert_bytes);
    append(out, cert_bytes);

    const Bytes content =
        certificate_verify_content(/*server=*/false, transcript_.current());
    CertificateVerify cv;
    cv.signature =
        crypto::ecdsa_sign(config_.identity->key.private_key, content).encode();
    const Bytes cv_bytes = cv.serialize();
    transcript_.add(cv_bytes);
    append(out, cv_bytes);
  }

  Finished fin;
  fin.verify_data = finished_verify_data(derive_finished_key(client_hs_secret),
                                         transcript_.current());
  const Bytes fin_bytes = fin.serialize();
  transcript_.add(fin_bytes);
  append(out, fin_bytes);

  secrets_.resumption_master =
      schedule_.resumption_master_secret(transcript_.current());
  done_ = true;
  return out;
}

PskInfo ClientHandshake::psk_from_ticket(const NewSessionTicket& ticket) const {
  PskInfo psk;
  psk.identity = ticket.ticket_id;
  psk.key = KeySchedule::ticket_psk(secrets_.resumption_master, ticket.nonce);
  return psk;
}

// --------------------------------------------------------------------------
// Server
// --------------------------------------------------------------------------

ServerHandshake::ServerHandshake(ServerConfig config, crypto::HmacDrbg& rng)
    : config_(std::move(config)), rng_(rng), schedule_(config_.suite) {}

Result<Bytes> ServerHandshake::on_client_flight(ByteView flight) {
  auto messages = split_flight(flight);
  if (!messages || messages->size() != 1 ||
      (*messages)[0].type != HandshakeType::client_hello) {
    return make_error(Errc::protocol_violation, "expected ClientHello");
  }

  std::optional<ClientHello> chlo;
  bool psk_mode = false, smt_mode = false;
  Bytes psk_or_smt_key;

  {
    OpTimer timer(timings_, "S1 Process CHLO", config_.op_clock);
    chlo = ClientHello::parse((*messages)[0].body);
    if (!chlo) {
      return make_error(Errc::protocol_violation, "bad ClientHello");
    }
    if (chlo->suite != config_.suite) {
      return make_error(Errc::handshake_failed, "cipher suite mismatch");
    }
  }

  const auto client_share = crypto::decode_point(chlo->key_share);
  if (!client_share) {
    return make_error(Errc::handshake_failed, "bad client key share");
  }

  if (!chlo->smt_ticket_id.empty()) {
    // SMT-ticket 0-RTT mode (§4.5.2).
    if (!config_.smt_key_lookup) {
      return make_error(Errc::handshake_failed, "no SMT key configured");
    }
    const auto longterm = config_.smt_key_lookup(chlo->smt_ticket_id);
    if (!longterm) {
      return make_error(Errc::handshake_failed, "unknown SMT ticket");
    }
    const auto key = derive_smt_key(chlo->smt_ticket_id, longterm->private_key,
                                    *client_share);
    if (!key) {
      return make_error(Errc::handshake_failed, "SMT key derivation failed");
    }
    psk_or_smt_key = *key;
    smt_mode = true;
  } else if (!chlo->psk_identity.empty()) {
    if (!config_.psk_lookup) {
      return make_error(Errc::handshake_failed, "no PSK store configured");
    }
    const auto psk = config_.psk_lookup(chlo->psk_identity);
    if (!psk) {
      return make_error(Errc::handshake_failed, "unknown PSK identity");
    }
    psk_or_smt_key = *psk;
    psk_mode = true;
  }

  schedule_.early(psk_or_smt_key);

  // Binder check authenticates the CHLO against the PSK / SMT key.
  if (psk_mode || smt_mode) {
    const Bytes expected = compute_binder(schedule_, smt_mode, *chlo);
    if (!ct_equal(expected, chlo->psk_binder)) {
      return make_error(Errc::handshake_failed, "binder verification failed");
    }
  }

  transcript_.add((*messages)[0].raw);

  // 0-RTT admission with anti-replay (§4.5.3).
  bool early_accepted = false;
  if (chlo->early_data && (psk_mode || smt_mode) && config_.accept_early_data) {
    early_accepted = config_.replay_guard == nullptr ||
                     config_.replay_guard->check_and_record(chlo->random);
    if (early_accepted) {
      secrets_.client_early_secret =
          schedule_.client_early_traffic_secret(transcript_.current());
      secrets_.client_early_keys =
          derive_traffic_keys(secrets_.client_early_secret, config_.suite);
    }
  }
  secrets_.early_data_accepted = early_accepted;

  // ECDHE runs in full handshakes, FS-resumption, and FS-upgraded 0-RTT.
  const bool want_ecdhe = (!psk_mode && !smt_mode) ||
                          (psk_mode && chlo->psk_ecdhe) ||
                          (smt_mode && chlo->request_fs);

  crypto::EcdhKeyPair server_eph;
  if (want_ecdhe) {
    if (config_.pregen_ephemeral) {
      server_eph = *config_.pregen_ephemeral;
    } else {
      OpTimer timer(timings_, "S2.1 Key Gen", config_.op_clock);
      server_eph = crypto::ecdh_keypair_from_seed(rng_.generate(32));
    }
  }

  Bytes ecdhe_secret;
  if (want_ecdhe) {
    OpTimer timer(timings_, "S2.2 ECDH Exchange", config_.op_clock);
    const auto z =
        crypto::ecdh_shared_secret(server_eph.private_key, *client_share);
    if (!z) {
      return make_error(Errc::handshake_failed, "ECDH failed");
    }
    ecdhe_secret = *z;
    secrets_.forward_secret = true;
  }

  Bytes out;
  {
    OpTimer timer(timings_, "S2.3 SHLO Gen", config_.op_clock);
    ServerHello shlo;
    shlo.random = rng_.generate(32);
    shlo.suite = config_.suite;
    if (want_ecdhe) shlo.key_share = crypto::encode_point(server_eph.public_key);
    shlo.psk_accepted = psk_mode || smt_mode;
    shlo.early_data_accepted = early_accepted;
    const Bytes shlo_bytes = shlo.serialize();
    transcript_.add(shlo_bytes);
    append(out, shlo_bytes);
  }

  schedule_.handshake(ecdhe_secret);
  const Bytes hs_hash = transcript_.current();
  const Bytes server_hs_secret =
      schedule_.server_handshake_traffic_secret(hs_hash);
  const Bytes client_hs_secret =
      schedule_.client_handshake_traffic_secret(hs_hash);
  client_finished_key_ = derive_finished_key(client_hs_secret);

  const bool full_mode = !psk_mode && !smt_mode;
  expect_client_cert_ = full_mode && config_.request_client_cert;

  {
    OpTimer timer(timings_, "S2.4 EE & Cert Encode", config_.op_clock);
    EncryptedExtensions ee;
    ee.client_cert_requested = expect_client_cert_;
    const Bytes ee_bytes = ee.serialize();
    transcript_.add(ee_bytes);
    append(out, ee_bytes);

    if (full_mode) {
      CertificateMsg cert_msg{config_.chain};
      const Bytes cert_bytes = cert_msg.serialize();
      transcript_.add(cert_bytes);
      append(out, cert_bytes);
    }
  }

  if (full_mode) {
    OpTimer timer(timings_, "S2.5 CertVerify Gen", config_.op_clock);
    const Bytes content =
        certificate_verify_content(/*server=*/true, transcript_.current());
    CertificateVerify cv;
    cv.signature =
        crypto::ecdsa_sign(config_.sig_key.private_key, content).encode();
    const Bytes cv_bytes = cv.serialize();
    transcript_.add(cv_bytes);
    append(out, cv_bytes);
  }

  {
    OpTimer timer(timings_, "S2.6 Secret Derive", config_.op_clock);
    Finished fin;
    fin.verify_data = finished_verify_data(derive_finished_key(server_hs_secret),
                                           transcript_.current());
    const Bytes fin_bytes = fin.serialize();
    transcript_.add(fin_bytes);
    append(out, fin_bytes);

    const Bytes ap_hash = transcript_.current();
    schedule_.master();
    secrets_.suite = config_.suite;
    secrets_.client_app_secret = schedule_.client_app_traffic_secret(ap_hash);
    secrets_.server_app_secret = schedule_.server_app_traffic_secret(ap_hash);
    secrets_.client_keys =
        derive_traffic_keys(secrets_.client_app_secret, config_.suite);
    secrets_.server_keys =
        derive_traffic_keys(secrets_.server_app_secret, config_.suite);
  }

  return out;
}

Status ServerHandshake::on_client_finished(ByteView flight) {
  auto messages = split_flight(flight);
  if (!messages || messages->empty()) {
    return make_error(Errc::protocol_violation, "malformed client flight");
  }

  OpTimer timer(timings_, "S3 Process Finished", config_.op_clock);
  std::optional<CertChain> client_chain;

  for (const auto& msg : *messages) {
    switch (msg.type) {
      case HandshakeType::certificate: {
        const auto cert_msg = CertificateMsg::parse(msg.body);
        if (!cert_msg) {
          return make_error(Errc::cert_invalid, "bad client Certificate");
        }
        const Status status = verify_chain(cert_msg->chain, config_.trusted_ca,
                                           config_.now);
        if (!status.ok()) return status;
        client_chain = cert_msg->chain;
        transcript_.add(msg.raw);
        break;
      }
      case HandshakeType::certificate_verify: {
        if (!client_chain) {
          return make_error(Errc::protocol_violation,
                            "client CertVerify without Certificate");
        }
        const Bytes content =
            certificate_verify_content(/*server=*/false, transcript_.current());
        const auto cv = CertificateVerify::parse(msg.body);
        if (!cv) {
          return make_error(Errc::protocol_violation, "bad client CertVerify");
        }
        const auto sig = crypto::EcdsaSignature::decode(cv->signature);
        const auto leaf_key =
            crypto::decode_point(client_chain->certs.front().public_key);
        if (!sig || !leaf_key ||
            !crypto::ecdsa_verify(*leaf_key, content, *sig)) {
          return make_error(Errc::handshake_failed,
                            "client CertificateVerify invalid");
        }
        transcript_.add(msg.raw);
        break;
      }
      case HandshakeType::finished: {
        if (expect_client_cert_ && !client_chain) {
          return make_error(Errc::handshake_failed,
                            "client certificate required but absent");
        }
        const auto fin = Finished::parse(msg.body);
        if (!fin) {
          return make_error(Errc::protocol_violation, "bad client Finished");
        }
        const Bytes expected =
            finished_verify_data(client_finished_key_, transcript_.current());
        if (!ct_equal(expected, fin->verify_data)) {
          return make_error(Errc::handshake_failed,
                            "client Finished verification failed");
        }
        transcript_.add(msg.raw);
        secrets_.resumption_master =
            schedule_.resumption_master_secret(transcript_.current());
        done_ = true;
        return Status::success();
      }
      default:
        return make_error(Errc::protocol_violation,
                          "unexpected message in client flight");
    }
  }
  return make_error(Errc::handshake_failed, "client flight lacked Finished");
}

std::pair<Bytes, PskInfo> ServerHandshake::make_session_ticket() {
  NewSessionTicket ticket;
  ticket.lifetime_seconds = 3600;  // paper §4.5.3: hourly rotation practice
  ticket.ticket_id = rng_.generate(16);
  ticket.nonce = rng_.generate(8);

  PskInfo psk;
  psk.identity = ticket.ticket_id;
  psk.key = KeySchedule::ticket_psk(secrets_.resumption_master, ticket.nonce);
  return {ticket.serialize(), psk};
}

}  // namespace smt::tls
