// uk9p/proto.h - 9P2000 message subset (§5.2: "apps can use the 9pfs protocol
// to access storage on the host").
//
// Wire format follows the Plan 9 manual: every message is
// size[4] type[1] tag[2] payload, strings are len[2]+bytes, qids are
// type[1] version[4] path[8], all little-endian. We implement the subset the
// filesystem driver needs (version/attach/walk/open/create/read/write/clunk/
// remove/stat/wstat) plus Rerror. Directory reads return a simplified entry
// encoding (count[2] then {qid, name} pairs) — documented deviation kept
// stable between our client and server.
#ifndef UK9P_PROTO_H_
#define UK9P_PROTO_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace uk9p {

enum class MsgType : std::uint8_t {
  kTversion = 100, kRversion = 101,
  kTattach = 104, kRattach = 105,
  kRerror = 107,
  kTwalk = 110, kRwalk = 111,
  kTopen = 112, kRopen = 113,
  kTcreate = 114, kRcreate = 115,
  kTread = 116, kRread = 117,
  kTwrite = 118, kRwrite = 119,
  kTclunk = 120, kRclunk = 121,
  kTremove = 122, kRremove = 123,
  kTstat = 124, kRstat = 125,
  kTwstat = 126, kRwstat = 127,
};

inline constexpr std::uint16_t kNoTag = 0xFFFF;
inline constexpr std::uint32_t kNoFid = 0xFFFFFFFF;
inline constexpr std::uint8_t kQtDir = 0x80;
inline constexpr std::uint8_t kQtFile = 0x00;
// Open modes.
inline constexpr std::uint8_t kORead = 0;
inline constexpr std::uint8_t kOWrite = 1;
inline constexpr std::uint8_t kORdWr = 2;
inline constexpr std::uint8_t kOTrunc = 0x10;
// Permission bit marking directories in Tcreate.
inline constexpr std::uint32_t kDmDir = 0x80000000u;

struct Qid {
  std::uint8_t type = kQtFile;
  std::uint32_t version = 0;
  std::uint64_t path = 0;
};

// Simplified stat payload (subset of the 9P stat structure).
struct Stat {
  Qid qid;
  std::uint64_t length = 0;
  std::string name;
};

// Little-endian serializer with bounds discipline.
class Writer {
 public:
  void U8(std::uint8_t v) { buf_.push_back(v); }
  void U16(std::uint16_t v);
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  void Str(std::string_view s);
  void Bytes(std::span<const std::uint8_t> data);
  void QidField(const Qid& q);

  // Finalizes a message: patches size[4] at the front.
  std::vector<std::uint8_t> Finish();

  // Returns the raw buffer without size patching (for nested encodings like
  // directory listings embedded in Rread payloads).
  std::vector<std::uint8_t> TakeRaw() { return std::move(buf_); }

  // Starts a message header (reserves size, writes type+tag).
  void Begin(MsgType type, std::uint16_t tag);

 private:
  std::vector<std::uint8_t> buf_;
};

// Little-endian reader; all getters return nullopt past the end, and the
// error latches so callers can check once at the end.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t U8();
  std::uint16_t U16();
  std::uint32_t U32();
  std::uint64_t U64();
  std::string Str();
  std::vector<std::uint8_t> Bytes(std::size_t n);
  Qid QidField();

  bool ok() const { return ok_; }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  bool Need(std::size_t n);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// Parses the 7-byte header of a complete message. Returns nullopt when the
// buffer is shorter than its declared size.
struct Header {
  std::uint32_t size;
  MsgType type;
  std::uint16_t tag;
};
std::optional<Header> ParseHeader(std::span<const std::uint8_t> msg);

// Payload view of a complete message (skips the 7-byte header).
inline std::span<const std::uint8_t> Payload(std::span<const std::uint8_t> msg) {
  return msg.size() >= 7 ? msg.subspan(7) : std::span<const std::uint8_t>();
}

}  // namespace uk9p

#endif  // UK9P_PROTO_H_
