#include "src/xdb/plan_cache.h"

#include <cctype>

#include "src/common/str_util.h"

namespace xdb {

std::string NormalizeSql(const std::string& sql) {
  std::string out;
  out.reserve(sql.size());
  bool in_string = false;
  bool pending_space = false;
  for (char c : sql) {
    if (in_string) {
      out.push_back(c);
      if (c == '\'') in_string = false;
      continue;
    }
    if (c == '\'') {
      if (pending_space && !out.empty()) out.push_back(' ');
      pending_space = false;
      out.push_back(c);
      in_string = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = true;
      continue;
    }
    if (pending_space && !out.empty()) out.push_back(' ');
    pending_space = false;
    out.push_back(AsciiLower(c));
  }
  while (!out.empty() && (out.back() == ';' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
}

PlanPtr DelegationPlanCache::Lookup(const std::string& norm_sql,
                                    const std::string& fingerprint) {
  PlanPtr master;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(norm_sql);
    if (it == index_.end()) {
      ++misses_;
      return nullptr;
    }
    if (it->second->fingerprint != fingerprint) {
      // Stale placement: the world changed under this plan. Retire it.
      lru_.erase(it->second);
      index_.erase(it);
      ++misses_;
      ++evictions_;
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
    master = it->second->plan;
    ++it->second->hits;
    ++hits_;
  }
  // Clone outside the lock: the master is immutable and the shared_ptr
  // keeps it alive even if it gets evicted concurrently.
  return master->Clone();
}

int DelegationPlanCache::Insert(const std::string& norm_sql,
                                const std::string& fingerprint,
                                PlanPtr plan) {
  std::lock_guard<std::mutex> lock(mu_);
  int evicted = 0;
  auto it = index_.find(norm_sql);
  if (it != index_.end()) {
    lru_.erase(it->second);
    index_.erase(it);
  }
  lru_.push_front(
      Entry{norm_sql, fingerprint, std::move(plan), 0, insert_counter_++});
  index_[norm_sql] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++evicted;
  }
  evictions_ += evicted;
  return evicted;
}

void DelegationPlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  evictions_ += static_cast<int64_t>(lru_.size());
  lru_.clear();
  index_.clear();
}

int64_t DelegationPlanCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

int64_t DelegationPlanCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

int64_t DelegationPlanCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

size_t DelegationPlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

std::vector<DelegationPlanCache::EntrySnapshot>
DelegationPlanCache::SnapshotEntries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<EntrySnapshot> out;
  out.reserve(lru_.size());
  for (const auto& [key, it] : index_) {
    out.push_back(EntrySnapshot{key, it->fingerprint, it->hits,
                                insert_counter_ - 1 - it->inserted_at});
  }
  return out;  // index_ is key-ordered already
}

}  // namespace xdb
