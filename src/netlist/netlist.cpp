#include "netlist/netlist.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace rcarb::netlist {

NetId Netlist::new_net(DriverKind kind, std::size_t index, std::string name) {
  const NetId id = static_cast<NetId>(driver_kind_.size());
  RCARB_CHECK(net_by_name_.try_emplace(name, id).second,
              "duplicate net name: " + name);
  driver_kind_.push_back(kind);
  driver_index_.push_back(index);
  net_name_.push_back(std::move(name));
  return id;
}

NetId Netlist::add_input(std::string name) {
  const NetId id = new_net(DriverKind::kPrimaryInput, inputs_.size(),
                           std::move(name));
  inputs_.push_back(id);
  return id;
}

NetId Netlist::add_lut(std::vector<NetId> inputs, std::uint16_t mask,
                       std::string name) {
  RCARB_CHECK(inputs.size() <= kMaxLutInputs, "LUT input count exceeds k");
  for (NetId in : inputs)
    RCARB_CHECK(in < num_nets(), "LUT input net out of range");
  const std::size_t index = luts_.size();
  const NetId out = new_net(DriverKind::kLut, index, std::move(name));
  luts_.push_back({std::move(inputs), mask, out});
  return out;
}

NetId Netlist::add_dff(NetId d, bool init, std::string name) {
  const std::size_t index = dffs_.size();
  const NetId q = new_net(DriverKind::kDff, index, std::move(name));
  dffs_.push_back({d, q, init});
  return q;
}

void Netlist::connect_dff_d(std::size_t dff_index, NetId d) {
  RCARB_CHECK(dff_index < dffs_.size(), "DFF index out of range");
  RCARB_CHECK(d < num_nets(), "DFF d net out of range");
  dffs_[dff_index].d = d;
}

void Netlist::mark_output(NetId net, std::string name) {
  RCARB_CHECK(net < num_nets(), "output net out of range");
  // The output name becomes an alias of the net so callers can address the
  // port by its interface name (find_net resolves either).
  if (!net_by_name_.contains(name)) net_by_name_.emplace(name, net);
  outputs_.emplace_back(net, std::move(name));
}

DriverKind Netlist::driver_kind(NetId net) const {
  RCARB_CHECK(net < num_nets(), "net out of range");
  return driver_kind_[net];
}

std::size_t Netlist::driver_index(NetId net) const {
  RCARB_CHECK(net < num_nets(), "net out of range");
  return driver_index_[net];
}

const std::string& Netlist::net_name(NetId net) const {
  RCARB_CHECK(net < num_nets(), "net out of range");
  return net_name_[net];
}

std::optional<NetId> Netlist::find_net(const std::string& name) const {
  if (auto it = net_by_name_.find(name); it != net_by_name_.end())
    return it->second;
  return std::nullopt;
}

std::vector<std::size_t> Netlist::fanout_counts() const {
  std::vector<std::size_t> fanout(num_nets(), 0);
  for (const Lut& lut : luts_)
    for (NetId in : lut.inputs) ++fanout[in];
  for (const Dff& dff : dffs_) ++fanout[dff.d];
  for (const auto& [net, name] : outputs_) ++fanout[net];
  return fanout;
}

std::size_t Netlist::max_fanout() const {
  const std::vector<std::size_t> fanout = fanout_counts();
  std::size_t best = 0;
  for (const std::size_t f : fanout) best = std::max(best, f);
  return best;
}

std::vector<std::vector<std::uint32_t>> Netlist::lut_fanouts() const {
  std::vector<std::vector<std::uint32_t>> fanouts(num_nets());
  for (std::size_t i = 0; i < luts_.size(); ++i) {
    for (NetId in : luts_[i].inputs) {
      // A LUT may read the same net on several pins; record it once.
      auto& sinks = fanouts[in];
      if (sinks.empty() || sinks.back() != static_cast<std::uint32_t>(i))
        sinks.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return fanouts;
}

std::vector<std::size_t> Netlist::lut_topo_order() const {
  // Kahn's algorithm over LUT→LUT dependencies (inputs and DFF outputs are
  // sources and impose no ordering).  Dependents are kept in CSR form:
  // dependents of LUT d are dep[start[d], start[d + 1]), one entry per pin
  // that reads d, filled in ascending sink order.
  const std::size_t m = luts_.size();
  std::vector<std::uint32_t> pending(m, 0);
  std::vector<std::uint32_t> start(m + 1, 0);
  for (std::size_t i = 0; i < m; ++i) {
    for (NetId in : luts_[i].inputs) {
      if (driver_kind_[in] == DriverKind::kLut) {
        ++pending[i];
        ++start[driver_index_[in] + 1];
      }
    }
  }
  for (std::size_t d = 0; d < m; ++d) start[d + 1] += start[d];
  std::vector<std::uint32_t> dep(start[m]);
  std::vector<std::uint32_t> fill(start.begin(), start.end() - 1);
  for (std::size_t i = 0; i < m; ++i)
    for (NetId in : luts_[i].inputs)
      if (driver_kind_[in] == DriverKind::kLut)
        dep[fill[driver_index_[in]]++] = static_cast<std::uint32_t>(i);

  std::vector<std::size_t> order;
  order.reserve(m);
  std::vector<std::uint32_t> ready;
  for (std::size_t i = 0; i < m; ++i)
    if (pending[i] == 0) ready.push_back(static_cast<std::uint32_t>(i));
  while (!ready.empty()) {
    const std::uint32_t i = ready.back();
    ready.pop_back();
    order.push_back(i);
    for (std::uint32_t e = start[i]; e < start[i + 1]; ++e)
      if (--pending[dep[e]] == 0) ready.push_back(dep[e]);
  }
  RCARB_CHECK(order.size() == luts_.size(),
              "combinational loop detected in netlist");
  return order;
}

}  // namespace rcarb::netlist
