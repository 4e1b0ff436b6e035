#include "src/net/network.h"

#include <algorithm>
#include <cmath>

#include "src/obs/metrics.h"
#include "src/testing/fault_injector.h"

namespace xdb {

namespace {
constexpr double kGigabit = 125e6;    // bytes/sec
constexpr double kFiftyMbit = 6.25e6;
constexpr double kHundredMbit = 12.5e6;
}  // namespace

void Network::AddNode(const std::string& name) {
  if (!HasNode(name)) nodes_.push_back(name);
}

bool Network::HasNode(const std::string& name) const {
  return std::find(nodes_.begin(), nodes_.end(), name) != nodes_.end();
}

void Network::SetLink(const std::string& a, const std::string& b,
                      LinkProps props) {
  links_[Key(a, b)] = props;
}

bool Network::CheckNodeKnown(const std::string& name) const {
  if (HasNode(name)) return true;
  unknown_nodes_.insert(name);
  return false;
}

LinkProps Network::GetLink(const std::string& a,
                           const std::string& b) const {
  {
    std::lock_guard<std::mutex> lock(*mu_);
    CheckNodeKnown(a);
    CheckNodeKnown(b);
  }
  auto it = links_.find(Key(a, b));
  LinkProps props = it != links_.end() ? it->second : default_link_;
  if (injector_ != nullptr) injector_->DegradeLink(a, b, &props);
  return props;
}

double Network::Batches(double rows) { return std::ceil(rows / 10000.0) + 1.0; }

double Network::TransferSeconds(const std::string& a, const std::string& b,
                                double bytes, double rows) const {
  LinkProps link = GetLink(a, b);
  return bytes / link.bandwidth + link.latency * Batches(rows);
}

void Network::BlockLink(const std::string& a, const std::string& b) {
  blocked_.insert(Key(a, b));
}

void Network::UnblockLink(const std::string& a, const std::string& b) {
  blocked_.erase(Key(a, b));
}

bool Network::IsReachable(const std::string& a, const std::string& b) const {
  if (a == b) return true;
  return blocked_.count(Key(a, b)) == 0;
}

void Network::set_metrics(MetricsRegistry* registry) {
  std::lock_guard<std::mutex> lock(*mu_);
  metrics_ = registry;
  if (registry == nullptr) {
    metric_bytes_ = nullptr;
    metric_messages_ = nullptr;
    metric_encoded_ = nullptr;
    return;
  }
  metric_bytes_ = registry->GetCounter(
      "xdb_network_bytes_total", "Bytes put on the wire (all links)");
  metric_messages_ = registry->GetCounter(
      "xdb_network_messages_total", "Messages put on the wire (all links)");
  metric_encoded_ = registry->GetCounter(
      "xdb_network_encoded_bytes_total",
      "Bytes shipped as compressed column chunks (all links)");
}

void Network::RecordTransfer(const std::string& src, const std::string& dst,
                             double bytes, uint64_t messages, bool encoded) {
  std::lock_guard<std::mutex> lock(*mu_);
  bool src_ok = CheckNodeKnown(src);
  if (!CheckNodeKnown(dst) || !src_ok) return;
  LinkStats& s = stats_[{src, dst}];
  s.bytes += bytes;
  s.messages += messages;
  if (metric_bytes_ != nullptr) {
    metric_bytes_->Increment(bytes);
    metric_messages_->Increment(static_cast<double>(messages));
    const MetricLabels link = {{"link", src + "->" + dst}};
    metrics_->GetCounter("xdb_network_bytes_total", link)->Increment(bytes);
    metrics_->GetCounter("xdb_network_messages_total", link)
        ->Increment(static_cast<double>(messages));
    // Per-link encoded cells appear on the first encoded transfer, so
    // raw-mode runs expose no zero-valued encoded series.
    if (encoded) {
      metric_encoded_->Increment(bytes);
      metrics_->GetCounter("xdb_network_encoded_bytes_total", link)
          ->Increment(bytes);
    }
  }
}

double Network::TotalBytes() const {
  std::lock_guard<std::mutex> lock(*mu_);
  double total = 0;
  for (const auto& [k, s] : stats_) total += s.bytes;
  return total;
}

double Network::BytesInvolving(const std::string& node) const {
  std::lock_guard<std::mutex> lock(*mu_);
  double total = 0;
  for (const auto& [k, s] : stats_) {
    if (k.first == node || k.second == node) total += s.bytes;
  }
  return total;
}

Network Network::Lan(const std::vector<std::string>& nodes) {
  Network net;
  net.SetDefaultLink({kGigabit, 0.0001});
  for (const auto& n : nodes) net.AddNode(n);
  return net;
}

Network Network::OnPremiseWithCloud(const std::vector<std::string>& nodes,
                                    const std::string& cloud_node) {
  Network net;
  net.SetDefaultLink({kGigabit, 0.0001});
  for (const auto& n : nodes) net.AddNode(n);
  net.AddNode(cloud_node);
  for (const auto& n : nodes) {
    if (n != cloud_node) net.SetLink(n, cloud_node, {kFiftyMbit, 0.020});
  }
  return net;
}

Network Network::GeoDistributed(const std::vector<std::string>& nodes,
                                const std::string& cloud_node) {
  Network net;
  net.SetDefaultLink({kHundredMbit, 0.040});
  for (const auto& n : nodes) net.AddNode(n);
  net.AddNode(cloud_node);
  return net;
}

}  // namespace xdb
