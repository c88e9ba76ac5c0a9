#include "stack/scenario.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace smt::stack {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

struct Cursor {
  std::string_view section;
  std::string_view key;
  std::size_t line = 0;

  Error fail(const std::string& what) const {
    return make_error(Errc::invalid_argument,
                      "scenario line " + std::to_string(line) + ": [" +
                          std::string(section) + "] " + std::string(key) +
                          ": " + what);
  }
};

Result<std::uint64_t> parse_u64(const Cursor& at, std::string_view value) {
  std::uint64_t out = 0;
  if (value.empty()) return at.fail("expected an unsigned integer");
  for (const char c : value) {
    if (c < '0' || c > '9') {
      return at.fail("expected an unsigned integer, got '" +
                     std::string(value) + "'");
    }
    out = out * 10 + std::uint64_t(c - '0');
  }
  return out;
}

Result<double> parse_double(const Cursor& at, std::string_view value) {
  char* end = nullptr;
  const std::string copy(value);
  const double out = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size() || copy.empty()) {
    return at.fail("expected a number, got '" + copy + "'");
  }
  return out;
}

Result<bool> parse_bool(const Cursor& at, std::string_view value) {
  if (value == "true" || value == "1") return true;
  if (value == "false" || value == "0") return false;
  return at.fail("expected true/false, got '" + std::string(value) + "'");
}

SimDuration usec_to_duration(double us) {
  return SimDuration(std::llround(us * 1e3));
}

Status apply_link_key(const Cursor& at, std::string_view value,
                      sim::LinkConfig& link) {
  if (at.key == "bandwidth_gbps") {
    auto v = parse_double(at, value);
    if (!v.ok()) return v.error();
    link.bandwidth_gbps = v.value();
  } else if (at.key == "propagation_us") {
    auto v = parse_double(at, value);
    if (!v.ok()) return v.error();
    link.propagation = usec_to_duration(v.value());
  } else {
    return at.fail("unknown key");
  }
  return Status::success();
}

Status apply_fault_key(const Cursor& at, std::string_view value,
                       sim::FaultProfile& fault) {
  auto set_prob = [&](double& out) -> Status {
    auto v = parse_double(at, value);
    if (!v.ok()) return v.error();
    out = v.value();
    return Status::success();
  };
  auto set_usec = [&](SimDuration& out) -> Status {
    auto v = parse_double(at, value);
    if (!v.ok()) return v.error();
    out = usec_to_duration(v.value());
    return Status::success();
  };
  if (at.key == "good_to_bad") return set_prob(fault.p_good_to_bad);
  if (at.key == "bad_to_good") return set_prob(fault.p_bad_to_good);
  if (at.key == "good_loss_rate") return set_prob(fault.good_loss_rate);
  if (at.key == "bad_loss_rate") return set_prob(fault.bad_loss_rate);
  if (at.key == "corrupt_rate") return set_prob(fault.corrupt_rate);
  if (at.key == "reorder_rate") return set_prob(fault.reorder_rate);
  if (at.key == "reorder_jitter_us") return set_usec(fault.reorder_jitter);
  if (at.key == "flap_period_us") return set_usec(fault.flap_period);
  if (at.key == "flap_down_us") return set_usec(fault.flap_down);
  if (at.key == "flap_offset_us") return set_usec(fault.flap_offset);
  if (at.key == "seed") {
    auto v = parse_u64(at, value);
    if (!v.ok()) return v.error();
    fault.seed = v.value();
    return Status::success();
  }
  return at.fail("unknown key");
}

/// Keys apply_fault_key understands — used to emit a pointed error when
/// one shows up in a link section instead of its fault section.
bool is_fault_key(std::string_view key) {
  return key == "good_to_bad" || key == "bad_to_good" ||
         key == "good_loss_rate" || key == "bad_loss_rate" ||
         key == "corrupt_rate" || key == "reorder_rate" ||
         key == "reorder_jitter_us" || key == "flap_period_us" ||
         key == "flap_down_us" || key == "flap_offset_us";
}

Status validate_link(const sim::LinkConfig& config) {
  if (config.bandwidth_gbps <= 0.0) {
    return make_error(Errc::invalid_argument,
                      "link: bandwidth must be positive");
  }
  if (config.propagation < 0) {
    return make_error(Errc::invalid_argument,
                      "link: propagation must be >= 0");
  }
  return sim::validate(config.fault, "fault");
}

Status validate_workload(const WorkloadSpec& spec) {
  if (spec.transport.empty()) {
    return make_error(Errc::invalid_argument,
                      "workload: transport must be named");
  }
  if (spec.concurrency == 0 || spec.ops_per_client == 0) {
    return make_error(Errc::invalid_argument,
                      "workload: concurrency and ops_per_client must be >= 1");
  }
  return Status::success();
}

}  // namespace

Status validate_host(const HostConfig& config) {
  if (config.app_cores == 0 || config.softirq_cores == 0) {
    return make_error(Errc::invalid_argument,
                      "host: app_cores and softirq_cores must be >= 1");
  }
  if (config.nic.num_queues == 0) {
    return make_error(Errc::invalid_argument,
                      "host: the NIC needs at least one queue");
  }
  if (config.nic.mtu_payload == 0) {
    return make_error(Errc::invalid_argument,
                      "host: mtu_payload must be positive");
  }
  return Status::success();
}

Status ScenarioConfig::validate() const {
  // The shape rules live with the fabric, so the two layers never drift.
  if (Status st = topology.validate(); !st.ok()) return st;
  if (Status st = validate_host(host); !st.ok()) return st;
  if (Status st = validate_link(edge_link); !st.ok()) return st;
  if (fabric_fault) {
    if (Status st = sim::validate(*fabric_fault, "fabric_fault"); !st.ok()) {
      return st;
    }
    if (topology.spines == 0) {
      return make_error(Errc::invalid_argument,
                        "fabric_fault: needs a fabric tier (spines >= 1) — "
                        "this topology has no switch-to-switch links; "
                        "[fault] covers the edge links");
    }
  }
  if (Status st = sim::validate(switch_config); !st.ok()) return st;
  return validate_workload(workload);
}

Result<ScenarioConfig> ScenarioConfig::parse(std::string_view text) {
  ScenarioConfig config;
  Cursor at;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    std::string_view line = trim(text.substr(pos, eol - pos));
    pos = eol + 1;
    ++at.line;
    if (const std::size_t hash = line.find('#');
        hash != std::string_view::npos) {
      line = trim(line.substr(0, hash));
    }
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') {
        at.key = {};
        return at.fail("unterminated [section] header");
      }
      at.section = trim(line.substr(1, line.size() - 2));
      if (at.section != "topology" && at.section != "host" &&
          at.section != "edge_link" && at.section != "fault" &&
          at.section != "fabric_fault" && at.section != "switch" &&
          at.section != "workload") {
        at.key = {};
        return at.fail("unknown section");
      }
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      at.key = line;
      return at.fail("expected 'key = value'");
    }
    at.key = trim(line.substr(0, eq));
    const std::string_view value = trim(line.substr(eq + 1));
    if (at.section.empty()) return at.fail("key outside any [section]");

    auto set_size = [&](std::size_t& out) -> Status {
      auto v = parse_u64(at, value);
      if (!v.ok()) return v.error();
      out = std::size_t(v.value());
      return Status::success();
    };
    auto set_bool = [&](bool& out) -> Status {
      auto v = parse_bool(at, value);
      if (!v.ok()) return v.error();
      out = v.value();
      return Status::success();
    };
    auto set_double = [&](double& out) -> Status {
      auto v = parse_double(at, value);
      if (!v.ok()) return v.error();
      out = v.value();
      return Status::success();
    };

    Status st = Status::success();
    if (at.section == "topology") {
      TopologySpec& t = config.topology;
      if (at.key == "racks") st = set_size(t.racks);
      else if (at.key == "hosts_per_rack") st = set_size(t.hosts_per_rack);
      else if (at.key == "spines") st = set_size(t.spines);
      else if (at.key == "aggs_per_pod") st = set_size(t.aggs_per_pod);
      else if (at.key == "racks_per_pod") st = set_size(t.racks_per_pod);
      else if (at.key == "oversubscription") st = set_double(t.oversubscription);
      else return at.fail("unknown key");
    } else if (at.section == "host") {
      HostConfig& h = config.host;
      if (at.key == "app_cores") st = set_size(h.app_cores);
      else if (at.key == "softirq_cores") st = set_size(h.softirq_cores);
      else if (at.key == "nic_queues") st = set_size(h.nic.num_queues);
      else if (at.key == "mtu_payload") st = set_size(h.nic.mtu_payload);
      else if (at.key == "tso") st = set_bool(h.nic.tso_enabled);
      else if (at.key == "tx_burst") st = set_size(h.nic.tx_burst);
      else if (at.key == "rx_burst") st = set_size(h.nic.rx_burst);
      else if (at.key == "rx_coalesce_frames") st = set_size(h.nic.rx_coalesce_frames);
      else if (at.key == "rx_coalesce_usecs") st = set_double(h.nic.rx_coalesce_usecs);
      else if (at.key == "adaptive_rx_coalesce") st = set_bool(h.nic.adaptive_rx_coalesce);
      else if (at.key == "rx_ring_size") st = set_size(h.nic.rx_ring_size);
      else if (at.key == "max_flow_contexts") st = set_size(h.nic.max_flow_contexts);
      else return at.fail("unknown key");
    } else if (at.section == "edge_link") {
      if (is_fault_key(at.key)) {
        return at.fail("fault keys live in [fault], not the link section");
      }
      if (at.key.starts_with("loss_")) {  // loss lives in the fault model
        return at.fail(
            "uniform loss is [fault] good_loss_rate, drawn from its seed");
      }
      st = apply_link_key(at, value, config.edge_link);
    } else if (at.section == "fault") {
      // [fault] impairs the EDGE links only (host<->host direct,
      // host<->ToR uplinks) — the adversity matrix's WAN/access shape.
      // Fabric-core (switch-to-switch) impairments go in [fabric_fault].
      if (at.key == "link" || at.key == "target" || at.key == "scope") {
        return at.fail("[fault] is edge-only and cannot name a link; use "
                       "[fabric_fault] for fabric-core (switch-to-switch) "
                       "links");
      }
      st = apply_fault_key(at, value, config.edge_link.fault);
    } else if (at.section == "fabric_fault") {
      // Fabric-core impairments: same keys as [fault], applied by
      // netsim/fabric.hpp to every switch-to-switch wire with per-wire
      // decorrelated RNG streams and flap phases.
      if (!config.fabric_fault) config.fabric_fault.emplace();
      st = apply_fault_key(at, value, *config.fabric_fault);
    } else if (at.section == "switch") {
      sim::SwitchConfig& s = config.switch_config;
      if (at.key == "queue_capacity_bytes") st = set_size(s.queue_capacity_bytes);
      else if (at.key == "trimming") st = set_bool(s.trimming_enabled);
      else if (at.key == "dark_threshold") st = set_size(s.health_dark_threshold);
      else if (at.key == "probe_interval_us") {
        auto v = parse_double(at, value);
        if (!v.ok()) return v.error();
        s.health_probe_interval = usec_to_duration(v.value());
      }
      else return at.fail("unknown key");
    } else if (at.section == "workload") {
      WorkloadSpec& w = config.workload;
      if (at.key == "transport") w.transport = std::string(value);
      else if (at.key == "request_bytes") st = set_size(w.request_bytes);
      else if (at.key == "response_bytes") st = set_size(w.response_bytes);
      else if (at.key == "concurrency") st = set_size(w.concurrency);
      else if (at.key == "ops_per_client") st = set_size(w.ops_per_client);
      else if (at.key == "clients") st = set_size(w.clients);
      else return at.fail("unknown key");
    }
    if (!st.ok()) return st.error();
  }

  if (const Status st = config.validate(); !st.ok()) return st.error();
  return config;
}

Result<ScenarioConfig> ScenarioConfig::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return make_error(Errc::invalid_argument,
                      "scenario: cannot open '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse(text.str());
}

}  // namespace smt::stack
