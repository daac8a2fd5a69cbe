#include "service/snapshot.h"

#include <cstdio>
#include <span>

#include "util/crc32.h"

namespace snd::service {

namespace {

/// Exact round-trip double formatting (hex float), so canonical_json is a
/// bit-level description of positions rather than a rounded one.
void append_double(std::string& out, double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "\"%a\"", value);
  out += buffer;
}

void append_list(std::string& out, const topology::NeighborList& list) {
  out += '[';
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(list[i]);
  }
  out += ']';
}

}  // namespace

bool Snapshot::validate(NodeId u, NodeId v) const {
  const NodeState* state = find(u);
  return state != nullptr && nodes_.contains(v) &&
         topology::contains(state->validated, v);
}

std::size_t Snapshot::validated_edge_count() const {
  std::size_t count = 0;
  for (const auto& [id, state] : nodes_) count += state->validated.size();
  return count;
}

std::string Snapshot::canonical_json() const {
  std::string out;
  out.reserve(64 * nodes_.size() + 64);
  out += "{\"t\":" + std::to_string(threshold_t_) + ",\"radio_range\":";
  append_double(out, radio_range_);
  out += ",\"nodes\":[";
  bool first = true;
  for (const auto& [id, state] : nodes_) {
    if (!first) out += ',';
    first = false;
    out += "{\"id\":" + std::to_string(id) + ",\"pos\":[";
    append_double(out, state->position.x);
    out += ',';
    append_double(out, state->position.y);
    out += "],\"neighbors\":";
    append_list(out, state->neighbors);
    out += ",\"validated\":";
    append_list(out, state->validated);
    out += '}';
  }
  out += "]}";
  return out;
}

std::uint32_t Snapshot::digest() const {
  const std::string json = canonical_json();
  return util::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(json.data()), json.size()));
}

}  // namespace snd::service
