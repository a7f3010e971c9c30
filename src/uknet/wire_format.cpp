#include "uknet/wire_format.h"

#include <cstring>

namespace uknet {

namespace {

void PutU16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}

void PutU32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

std::uint16_t GetU16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

std::uint32_t GetU32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) | (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | p[3];
}

}  // namespace

Ip4Addr MakeIp(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d) {
  return (static_cast<Ip4Addr>(a) << 24) | (static_cast<Ip4Addr>(b) << 16) |
         (static_cast<Ip4Addr>(c) << 8) | d;
}

std::uint16_t InternetChecksum(std::span<const std::uint8_t> data, std::uint32_t initial) {
  std::uint32_t sum = initial;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<std::uint32_t>((data[i] << 8) | data[i + 1]);
  }
  if (i < data.size()) {
    sum += static_cast<std::uint32_t>(data[i] << 8);
  }
  while ((sum >> 16) != 0) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<std::uint16_t>(~sum);
}

std::uint32_t PseudoHeaderSum(Ip4Addr src, Ip4Addr dst, std::uint8_t proto,
                              std::uint16_t length) {
  std::uint32_t sum = 0;
  sum += (src >> 16) + (src & 0xffff);
  sum += (dst >> 16) + (dst & 0xffff);
  sum += proto;
  sum += length;
  return sum;
}

// ---- Ethernet -------------------------------------------------------------------

void EthHeader::Serialize(std::uint8_t* out) const {
  std::memcpy(out, dst.bytes, 6);
  std::memcpy(out + 6, src.bytes, 6);
  PutU16(out + 12, ethertype);
}

EthHeader EthHeader::Parse(std::span<const std::uint8_t> in) {
  EthHeader h;
  if (in.size() < kEthHdrBytes) {
    return h;
  }
  std::memcpy(h.dst.bytes, in.data(), 6);
  std::memcpy(h.src.bytes, in.data() + 6, 6);
  h.ethertype = GetU16(in.data() + 12);
  return h;
}

// ---- ARP ------------------------------------------------------------------------

void ArpPacket::Serialize(std::uint8_t* out) const {
  PutU16(out, 1);               // htype ethernet
  PutU16(out + 2, kEthTypeIp4); // ptype
  out[4] = 6;                   // hlen
  out[5] = 4;                   // plen
  PutU16(out + 6, oper);
  std::memcpy(out + 8, sender_mac.bytes, 6);
  PutU32(out + 14, sender_ip);
  std::memcpy(out + 18, target_mac.bytes, 6);
  PutU32(out + 24, target_ip);
}

std::optional<ArpPacket> ArpPacket::Parse(std::span<const std::uint8_t> in) {
  if (in.size() < kArpBytes || GetU16(in.data()) != 1 ||
      GetU16(in.data() + 2) != kEthTypeIp4) {
    return std::nullopt;
  }
  ArpPacket p;
  p.oper = GetU16(in.data() + 6);
  std::memcpy(p.sender_mac.bytes, in.data() + 8, 6);
  p.sender_ip = GetU32(in.data() + 14);
  std::memcpy(p.target_mac.bytes, in.data() + 18, 6);
  p.target_ip = GetU32(in.data() + 24);
  return p;
}

// ---- IPv4 -----------------------------------------------------------------------

void Ip4Header::Serialize(std::uint8_t* out) const {
  out[0] = 0x45;  // version 4, ihl 5
  out[1] = 0;
  PutU16(out + 2, total_len);
  PutU16(out + 4, id);
  PutU16(out + 6, 0x4000);  // DF, no fragments
  out[8] = ttl;
  out[9] = proto;
  PutU16(out + 10, 0);  // checksum placeholder
  PutU32(out + 12, src);
  PutU32(out + 16, dst);
  std::uint16_t csum = InternetChecksum(std::span(out, kIp4HdrBytes));
  PutU16(out + 10, csum);
}

std::optional<Ip4Header> Ip4Header::Parse(std::span<const std::uint8_t> in) {
  if (in.size() < kIp4HdrBytes || (in[0] >> 4) != 4) {
    return std::nullopt;
  }
  std::size_t ihl = static_cast<std::size_t>(in[0] & 0x0f) * 4;
  if (ihl < kIp4HdrBytes || in.size() < ihl) {
    return std::nullopt;
  }
  if (InternetChecksum(in.first(ihl)) != 0) {
    return std::nullopt;  // corrupted header
  }
  Ip4Header h;
  h.header_len = static_cast<std::uint8_t>(ihl);
  h.total_len = GetU16(in.data() + 2);
  h.id = GetU16(in.data() + 4);
  h.ttl = in[8];
  h.proto = in[9];
  h.src = GetU32(in.data() + 12);
  h.dst = GetU32(in.data() + 16);
  if (h.total_len < ihl || h.total_len > in.size()) {
    return std::nullopt;
  }
  return h;
}

// ---- UDP ------------------------------------------------------------------------

void UdpHeader::Serialize(std::uint8_t* out, Ip4Addr src_ip, Ip4Addr dst_ip,
                          std::span<const std::uint8_t> payload) const {
  PutU16(out, src_port);
  PutU16(out + 2, dst_port);
  PutU16(out + 4, static_cast<std::uint16_t>(kUdpHdrBytes + payload.size()));
  PutU16(out + 6, 0);
  // Checksum covers pseudo-header + header + payload; header bytes first.
  std::uint32_t init = PseudoHeaderSum(
      src_ip, dst_ip, kIpProtoUdp,
      static_cast<std::uint16_t>(kUdpHdrBytes + payload.size()));
  // Fold the header (with zero checksum field).
  std::uint32_t sum = init;
  sum += static_cast<std::uint32_t>((out[0] << 8) | out[1]);
  sum += static_cast<std::uint32_t>((out[2] << 8) | out[3]);
  sum += static_cast<std::uint32_t>((out[4] << 8) | out[5]);
  std::uint16_t csum = InternetChecksum(payload, sum);
  if (csum == 0) {
    csum = 0xffff;  // RFC 768: zero means "no checksum"
  }
  PutU16(out + 6, csum);
}

std::optional<UdpHeader> UdpHeader::Parse(std::span<const std::uint8_t> datagram,
                                          Ip4Addr src_ip, Ip4Addr dst_ip,
                                          bool verify_checksum) {
  if (datagram.size() < kUdpHdrBytes) {
    return std::nullopt;
  }
  UdpHeader h;
  h.src_port = GetU16(datagram.data());
  h.dst_port = GetU16(datagram.data() + 2);
  h.length = GetU16(datagram.data() + 4);
  if (h.length < kUdpHdrBytes || h.length > datagram.size()) {
    return std::nullopt;
  }
  if (verify_checksum && GetU16(datagram.data() + 6) != 0) {
    std::uint32_t init = PseudoHeaderSum(src_ip, dst_ip, kIpProtoUdp, h.length);
    if (InternetChecksum(datagram.first(h.length), init) != 0) {
      return std::nullopt;
    }
  }
  return h;
}

// ---- TCP ------------------------------------------------------------------------

std::size_t TcpHeader::OptionBytes() const {
  std::size_t raw = 0;
  if (mss != 0) {
    raw += 4;
  }
  if (wscale >= 0) {
    raw += 3;
  }
  if (sack_permitted) {
    raw += 2;
  }
  if (sack_count > 0) {
    raw += 2 + 8 * static_cast<std::size_t>(sack_count);
  }
  return (raw + 3) & ~std::size_t{3};  // NOP-pad to a 4-byte multiple
}

void TcpHeader::Serialize(std::uint8_t* out, Ip4Addr src_ip, Ip4Addr dst_ip,
                          std::span<const std::uint8_t> payload) const {
  const std::size_t hdr_bytes = HeaderBytes();
  PutU16(out, src_port);
  PutU16(out + 2, dst_port);
  PutU32(out + 4, seq);
  PutU32(out + 8, ack);
  out[12] = static_cast<std::uint8_t>((hdr_bytes / 4) << 4);  // data offset
  out[13] = flags;
  PutU16(out + 14, window);
  PutU16(out + 16, 0);  // checksum placeholder
  PutU16(out + 18, 0);  // urgent
  std::uint8_t* opt = out + kTcpHdrBytes;
  if (mss != 0) {
    opt[0] = 2;
    opt[1] = 4;
    PutU16(opt + 2, mss);
    opt += 4;
  }
  if (wscale >= 0) {
    opt[0] = 3;
    opt[1] = 3;
    opt[2] = static_cast<std::uint8_t>(wscale);
    opt += 3;
  }
  if (sack_permitted) {
    opt[0] = 4;
    opt[1] = 2;
    opt += 2;
  }
  if (sack_count > 0) {
    opt[0] = 5;
    opt[1] = static_cast<std::uint8_t>(2 + 8 * sack_count);
    for (std::uint8_t i = 0; i < sack_count; ++i) {
      PutU32(opt + 2 + 8 * i, sacks[i].start);
      PutU32(opt + 6 + 8 * i, sacks[i].end);
    }
    opt += 2 + 8 * sack_count;
  }
  while (opt < out + hdr_bytes) {
    *opt++ = 1;  // NOP padding
  }
  std::uint32_t init = PseudoHeaderSum(
      src_ip, dst_ip, kIpProtoTcp,
      static_cast<std::uint16_t>(hdr_bytes + payload.size()));
  std::uint32_t sum = init;
  for (std::size_t i = 0; i < hdr_bytes; i += 2) {
    sum += static_cast<std::uint32_t>((out[i] << 8) | out[i + 1]);
  }
  std::uint16_t csum = InternetChecksum(payload, sum);
  PutU16(out + 16, csum);
}

std::optional<TcpHeader> TcpHeader::Parse(std::span<const std::uint8_t> segment,
                                          Ip4Addr src_ip, Ip4Addr dst_ip,
                                          std::size_t* header_len,
                                          bool verify_checksum) {
  if (segment.size() < kTcpHdrBytes) {
    return std::nullopt;
  }
  std::size_t off = static_cast<std::size_t>(segment[12] >> 4) * 4;
  if (off < kTcpHdrBytes || off > segment.size()) {
    return std::nullopt;
  }
  if (verify_checksum) {
    std::uint32_t init = PseudoHeaderSum(src_ip, dst_ip, kIpProtoTcp,
                                         static_cast<std::uint16_t>(segment.size()));
    if (InternetChecksum(segment, init) != 0) {
      return std::nullopt;
    }
  }
  TcpHeader h;
  h.src_port = GetU16(segment.data());
  h.dst_port = GetU16(segment.data() + 2);
  h.seq = GetU32(segment.data() + 4);
  h.ack = GetU32(segment.data() + 8);
  h.flags = segment[13];
  h.window = GetU16(segment.data() + 14);
  // Walk the option area: END stops, NOP is 1 byte, everything else is TLV.
  // Unknown kinds are skipped; a zero/truncated length aborts the walk (the
  // header stays usable — options parsed so far are kept).
  std::size_t i = kTcpHdrBytes;
  while (i < off) {
    std::uint8_t kind = segment[i];
    if (kind == 0) {
      break;
    }
    if (kind == 1) {
      ++i;
      continue;
    }
    if (i + 1 >= off) {
      break;
    }
    std::size_t len = segment[i + 1];
    if (len < 2 || i + len > off) {
      break;
    }
    switch (kind) {
      case 2:
        if (len == 4) {
          h.mss = GetU16(segment.data() + i + 2);
        }
        break;
      case 3:
        if (len == 3) {
          // RFC 7323 caps the shift at 14; clamp rather than reject.
          h.wscale = static_cast<std::int8_t>(
              segment[i + 2] > 14 ? 14 : segment[i + 2]);
        }
        break;
      case 4:
        if (len == 2) {
          h.sack_permitted = true;
        }
        break;
      case 5:
        if (len >= 10 && (len - 2) % 8 == 0) {
          std::size_t n = (len - 2) / 8;
          for (std::size_t b = 0; b < n && h.sack_count < h.sacks.size(); ++b) {
            h.sacks[h.sack_count].start = GetU32(segment.data() + i + 2 + 8 * b);
            h.sacks[h.sack_count].end = GetU32(segment.data() + i + 6 + 8 * b);
            ++h.sack_count;
          }
        }
        break;
      default:
        break;
    }
    i += len;
  }
  *header_len = off;
  return h;
}

// ---- ICMP -----------------------------------------------------------------------

std::vector<std::uint8_t> IcmpEcho::Serialize() const {
  std::vector<std::uint8_t> out(8 + payload.size());
  out[0] = is_reply ? 0 : 8;
  out[1] = 0;
  PutU16(out.data() + 4, id);
  PutU16(out.data() + 6, seq);
  std::copy(payload.begin(), payload.end(), out.begin() + 8);
  std::uint16_t csum = InternetChecksum(out);
  PutU16(out.data() + 2, csum);
  return out;
}

std::optional<IcmpEcho> IcmpEcho::Parse(std::span<const std::uint8_t> in) {
  if (in.size() < 8 || (in[0] != 0 && in[0] != 8)) {
    return std::nullopt;
  }
  if (InternetChecksum(in) != 0) {
    return std::nullopt;
  }
  IcmpEcho e;
  e.is_reply = in[0] == 0;
  e.id = GetU16(in.data() + 4);
  e.seq = GetU16(in.data() + 6);
  e.payload.assign(in.begin() + 8, in.end());
  return e;
}

}  // namespace uknet
