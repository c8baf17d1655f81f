#include "vpg/group.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.hpp"  // json_escape / json_double

namespace wav::vpg {
namespace {

bool sorted_contains(const std::vector<std::uint64_t>& v, std::uint64_t host) {
  return std::binary_search(v.begin(), v.end(), host);
}

}  // namespace

bool GroupEpoch::is_member(std::uint64_t host) const {
  return sorted_contains(members, host);
}
bool GroupEpoch::is_invited(std::uint64_t host) const {
  return sorted_contains(invited, host);
}
bool GroupEpoch::is_revoked(std::uint64_t host) const {
  return sorted_contains(revoked, host);
}

const char* to_string(GroupOp op) noexcept {
  switch (op) {
    case GroupOp::kCreate: return "create";
    case GroupOp::kInvite: return "invite";
    case GroupOp::kJoin: return "join";
    case GroupOp::kLeave: return "leave";
    case GroupOp::kRevoke: return "revoke";
  }
  return "?";
}

const char* to_string(GroupOpStatus status) noexcept {
  switch (status) {
    case GroupOpStatus::kOk: return "ok";
    case GroupOpStatus::kUnknownGroup: return "unknown_group";
    case GroupOpStatus::kExists: return "exists";
    case GroupOpStatus::kNotInvited: return "not_invited";
    case GroupOpStatus::kNotMember: return "not_member";
    case GroupOpStatus::kRevoked: return "revoked";
  }
  return "?";
}

std::string GroupLog::to_jsonl() const {
  std::string out;
  for (const Event& e : events_) {
    out += "{\"ns\":" + std::to_string(e.at.since_start.count());
    out += ",\"kind\":\"" + obs::json_escape(e.kind) + "\"";
    out += ",\"host\":\"" + obs::json_escape(e.host) + "\"";
    out += ",\"group\":" + std::to_string(e.group);
    out += ",\"version\":" + std::to_string(e.version);
    if (e.peer != 0) out += ",\"peer\":" + std::to_string(e.peer);
    if (!e.detail.empty()) out += ",\"detail\":\"" + obs::json_escape(e.detail) + "\"";
    if (e.latency_ms >= 0.0) out += ",\"latency_ms\":" + obs::json_double(e.latency_ms);
    out += "}\n";
  }
  return out;
}

bool GroupLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::string body = to_jsonl();
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace wav::vpg
