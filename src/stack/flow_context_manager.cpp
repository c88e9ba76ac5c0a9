#include "stack/flow_context_manager.hpp"

#include "stack/core.hpp"
#include "stack/cost_model.hpp"

namespace smt::stack {

Result<FlowContextManager::Lease*> FlowContextManager::acquire(
    const FlowKey& key, tls::CipherSuite suite, const tls::TrafficKeys& keys,
    std::uint64_t first_seq) {
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++stats_.hits;
    lru_.splice(lru_.end(), lru_, it->second.lru_pos);  // most recently used
    it->second.lease.fresh = false;
    return &it->second.lease;
  }

  ++stats_.misses;
  auto created = nic_.create_flow_context(suite, keys, first_seq);
  while (!created.ok()) {
    if (!evict_one_idle()) {
      ++stats_.acquire_failures;
      return created.error();
    }
    created = nic_.create_flow_context(suite, keys, first_seq);
  }

  if (!ever_held_.insert(key).second) ++stats_.reestablished;

  Entry entry;
  entry.lease.context_id = created.value();
  entry.lease.shadow_seq = first_seq;
  entry.lease.fresh = true;
  entry.lru_pos = lru_.insert(lru_.end(), key);
  const auto [pos, inserted] = entries_.emplace(key, std::move(entry));
  (void)inserted;
  return &pos->second.lease;
}

// Note: contexts freed while descriptors are in flight (rekey/teardown)
// linger in the NIC table as pending-release zombies until the rings
// drain, transiently shrinking the capacity this eviction loop can
// reclaim. That window is a few descriptor-processing times; within it
// the manager simply evicts the next idle victim (or, if every context
// is busy, fails the acquire).
bool FlowContextManager::evict_one_idle() {
  for (auto lru_it = lru_.begin(); lru_it != lru_.end(); ++lru_it) {
    const auto entry_it = entries_.find(*lru_it);
    if (entry_it == entries_.end()) continue;  // defensive; should not happen
    if (nic_.context_in_flight(entry_it->second.lease.context_id)) {
      continue;  // descriptors still queued; not a safe victim
    }
    nic_.release_flow_context(entry_it->second.lease.context_id);
    entries_.erase(entry_it);
    lru_.erase(lru_it);
    ++stats_.evictions;
    return true;
  }
  return false;
}

void FlowContextManager::bind_tx(const FlowKey& key, tls::CipherSuite suite,
                                 const tls::TrafficKeys& keys,
                                 sim::InlineTls& run, CpuCore* core) {
  if (run.count == 0) return;
  auto lease = acquire(key, suite, keys, run.first_seq);
  if (!lease.ok()) return;
  Lease& ctx = *lease.value();
  // A lease (re)established at post time: the driver programs the NIC
  // context on whichever core is posting.
  if (ctx.fresh && core != nullptr) core->charge(kCosts.context_establish);
  run.context_id = ctx.context_id;
  // The run's records are consecutive, so only its first can diverge.
  if (ctx.shadow_seq != run.first_seq) {
    nic_.post_resync(key.queue, ctx.context_id, run.first_seq,
                     doorbell_charge(core));
  }
  ctx.shadow_seq = run.first_seq + run.count;
}

void FlowContextManager::invalidate_session(sim::Proto proto,
                                            std::uint64_t session_tag) {
  const FlowKey first{proto, session_tag};
  const auto in_session = [&](const FlowKey& key) {
    return key.proto == proto && key.session_tag == session_tag;
  };
  for (auto it = entries_.lower_bound(first);
       it != entries_.end() && in_session(it->first);) {
    nic_.release_flow_context(it->second.lease.context_id);
    lru_.erase(it->second.lru_pos);
    it = entries_.erase(it);
  }
  // Forget the session's history too: bounds ever_held_ under endpoint
  // churn and keeps `reestablished` from counting across key epochs (a
  // rekeyed session's first acquire is a fresh establishment, not a
  // re-establishment of the dead epoch's context).
  for (auto it = ever_held_.lower_bound(first);
       it != ever_held_.end() && in_session(*it);) {
    it = ever_held_.erase(it);
  }
}

void FlowContextManager::invalidate_all() {
  // No release_flow_context calls: this runs after Nic::reset() cleared
  // the device table, so the IDs we hold name nothing (release would be a
  // harmless no-op, but skipping it keeps the semantics honest — the
  // driver is reconciling with a device that lost state, not freeing).
  // ever_held_ survives deliberately: post-reset acquires ARE
  // re-establishments of sessions the host still considers live.
  entries_.clear();
  lru_.clear();
}

}  // namespace smt::stack
