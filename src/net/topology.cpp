#include "net/topology.hpp"

namespace hcsim {

LinkId Topology::addLink(const std::string& name, Bandwidth capacity, Seconds latency) {
  const auto [it, added] = byName_.try_emplace(name);
  if (!added) throw std::invalid_argument("Topology: duplicate link name: " + name);
  return it->second = net_.addLink(name, capacity, latency);
}

LinkId Topology::link(const std::string& name) const {
  const auto it = byName_.find(name);
  if (it == byName_.end()) {
    throw std::out_of_range("Topology: unknown link: " + name);
  }
  return it->second;
}

GroupId Topology::addGroup(const std::string& name, std::size_t count, Bandwidth capacityEach,
                           Seconds latency) {
  if (count == 0) throw std::invalid_argument("Topology: empty group: " + name);
  Group g;
  g.links.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    g.links.push_back(addLink(name + "[" + std::to_string(i) + "]", capacityEach, latency));
  }
  groups_.push_back(std::move(g));
  return GroupId{static_cast<std::uint32_t>(groups_.size() - 1)};
}

LinkId Topology::pick(GroupId group) {
  Group& g = groups_.at(group.value);
  const LinkId id = g.links[g.next % g.links.size()];
  ++g.next;
  return id;
}

LinkId Topology::pickAt(GroupId group, std::size_t index) const {
  const Group& g = groups_.at(group.value);
  return g.links[index % g.links.size()];
}

std::size_t Topology::groupSize(GroupId group) const { return groups_.at(group.value).links.size(); }

Bandwidth Topology::groupCapacity(GroupId group) const {
  const Group& g = groups_.at(group.value);
  Bandwidth total = 0.0;
  for (LinkId id : g.links) total += net_.link(id).capacity;
  return total;
}

}  // namespace hcsim
