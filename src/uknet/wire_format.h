// uknet/wire_format.h - on-wire packet formats: Ethernet, ARP, IPv4, ICMP,
// UDP, TCP. Network byte order on the wire, host order in the structs; the
// Internet checksum is computed for real on both paths (part of the genuine
// per-packet CPU cost the socket-vs-uknetdev experiments measure).
#ifndef UKNET_WIRE_FORMAT_H_
#define UKNET_WIRE_FORMAT_H_

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "uknetdev/netdev.h"

namespace uknet {

using Ip4Addr = std::uint32_t;  // host byte order

inline constexpr std::uint16_t kEthTypeIp4 = 0x0800;
inline constexpr std::uint16_t kEthTypeArp = 0x0806;
inline constexpr std::uint8_t kIpProtoIcmp = 1;
inline constexpr std::uint8_t kIpProtoTcp = 6;
inline constexpr std::uint8_t kIpProtoUdp = 17;

inline constexpr std::size_t kEthHdrBytes = 14;
inline constexpr std::size_t kIp4HdrBytes = 20;
inline constexpr std::size_t kUdpHdrBytes = 8;
inline constexpr std::size_t kTcpHdrBytes = 20;
inline constexpr std::size_t kArpBytes = 28;

// "a.b.c.d" helper for tests and examples.
Ip4Addr MakeIp(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d);

// RFC 1071 Internet checksum over |data|, starting from |initial| (used to
// fold in the pseudo-header for TCP/UDP).
std::uint16_t InternetChecksum(std::span<const std::uint8_t> data,
                               std::uint32_t initial = 0);
// Pseudo-header partial sum for TCP/UDP checksums.
std::uint32_t PseudoHeaderSum(Ip4Addr src, Ip4Addr dst, std::uint8_t proto,
                              std::uint16_t length);

struct EthHeader {
  uknetdev::MacAddr dst;
  uknetdev::MacAddr src;
  std::uint16_t ethertype = 0;

  void Serialize(std::uint8_t* out) const;
  static EthHeader Parse(std::span<const std::uint8_t> in);
};

struct ArpPacket {
  std::uint16_t oper = 0;  // 1 request, 2 reply
  uknetdev::MacAddr sender_mac;
  Ip4Addr sender_ip = 0;
  uknetdev::MacAddr target_mac;
  Ip4Addr target_ip = 0;

  void Serialize(std::uint8_t* out) const;
  static std::optional<ArpPacket> Parse(std::span<const std::uint8_t> in);
};

struct Ip4Header {
  std::uint16_t total_len = 0;
  std::uint16_t id = 0;
  std::uint8_t ttl = 64;
  std::uint8_t proto = 0;
  // Header length in bytes as parsed (IHL * 4). Parse accepts options
  // (IHL > 5), so L4 payload slicing must start here, never at the fixed
  // kIp4HdrBytes offset. Serialize always emits an option-less header.
  std::uint8_t header_len = kIp4HdrBytes;
  Ip4Addr src = 0;
  Ip4Addr dst = 0;

  // Serializes with a freshly computed header checksum.
  void Serialize(std::uint8_t* out) const;
  // Returns nullopt on bad version/length/checksum.
  static std::optional<Ip4Header> Parse(std::span<const std::uint8_t> in);
};

struct UdpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t length = 0;  // header + payload

  // |payload| is required to compute the checksum over the full datagram.
  void Serialize(std::uint8_t* out, Ip4Addr src_ip, Ip4Addr dst_ip,
                 std::span<const std::uint8_t> payload) const;
  static std::optional<UdpHeader> Parse(std::span<const std::uint8_t> datagram,
                                        Ip4Addr src_ip, Ip4Addr dst_ip,
                                        bool verify_checksum = true);
};

inline constexpr std::uint8_t kTcpFin = 0x01;
inline constexpr std::uint8_t kTcpSyn = 0x02;
inline constexpr std::uint8_t kTcpRst = 0x04;
inline constexpr std::uint8_t kTcpPsh = 0x08;
inline constexpr std::uint8_t kTcpAck = 0x10;

// One SACK block: [start, end) in sequence space, RFC 2018 semantics (left
// edge received, right edge is first byte NOT covered).
struct TcpSackBlock {
  std::uint32_t start = 0;
  std::uint32_t end = 0;
};

struct TcpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;
  std::uint16_t window = 0;

  // TCP options. kTcpHdrBytes stays the 20-byte base header; segments that
  // carry options have HeaderBytes() > kTcpHdrBytes and a data offset > 5.
  // Serialize emits exactly the options set here (MSS/wscale/SACK-permitted
  // only make sense on SYNs; SACK blocks only on established-state ACKs) and
  // Parse fills them back in, skipping unknown kinds.
  std::uint16_t mss = 0;         // kind 2; 0 = absent
  std::int8_t wscale = -1;       // kind 3; -1 = absent, else shift count
  bool sack_permitted = false;   // kind 4
  std::uint8_t sack_count = 0;   // number of valid entries in |sacks|
  std::array<TcpSackBlock, 4> sacks{};  // kind 5

  // Option area size in bytes, NOP-padded to a 4-byte multiple.
  std::size_t OptionBytes() const;
  // Total header size: base 20 bytes + options.
  std::size_t HeaderBytes() const { return kTcpHdrBytes + OptionBytes(); }

  void Serialize(std::uint8_t* out, Ip4Addr src_ip, Ip4Addr dst_ip,
                 std::span<const std::uint8_t> payload) const;
  static std::optional<TcpHeader> Parse(std::span<const std::uint8_t> segment,
                                        Ip4Addr src_ip, Ip4Addr dst_ip,
                                        std::size_t* header_len,
                                        bool verify_checksum = true);
};

struct IcmpEcho {
  bool is_reply = false;
  std::uint16_t id = 0;
  std::uint16_t seq = 0;
  std::vector<std::uint8_t> payload;

  std::vector<std::uint8_t> Serialize() const;
  static std::optional<IcmpEcho> Parse(std::span<const std::uint8_t> in);
};

// Sequence-number arithmetic (RFC 793 comparisons with wraparound).
inline bool SeqLt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
inline bool SeqLe(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) <= 0;
}

}  // namespace uknet

#endif  // UKNET_WIRE_FORMAT_H_
