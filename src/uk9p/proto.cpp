#include "uk9p/proto.h"

#include <cstring>

namespace uk9p {

void Writer::U16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Writer::U32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::U64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::Str(std::string_view s) {
  U16(static_cast<std::uint16_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Writer::Bytes(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void Writer::QidField(const Qid& q) {
  U8(q.type);
  U32(q.version);
  U64(q.path);
}

void Writer::Begin(MsgType type, std::uint16_t tag) {
  buf_.clear();
  U32(0);  // size placeholder
  U8(static_cast<std::uint8_t>(type));
  U16(tag);
}

std::vector<std::uint8_t> Writer::Finish() {
  std::uint32_t size = static_cast<std::uint32_t>(buf_.size());
  std::memcpy(buf_.data(), &size, 4);
  return std::move(buf_);
}

bool Reader::Need(std::size_t n) {
  if (!ok_ || pos_ + n > data_.size()) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t Reader::U8() {
  if (!Need(1)) {
    return 0;
  }
  return data_[pos_++];
}

std::uint16_t Reader::U16() {
  if (!Need(2)) {
    return 0;
  }
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
  pos_ += 2;
  return v;
}

std::uint32_t Reader::U32() {
  if (!Need(4)) {
    return 0;
  }
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
  }
  pos_ += 4;
  return v;
}

std::uint64_t Reader::U64() {
  if (!Need(8)) {
    return 0;
  }
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
  }
  pos_ += 8;
  return v;
}

std::string Reader::Str() {
  std::uint16_t len = U16();
  if (!Need(len)) {
    return {};
  }
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return s;
}

std::vector<std::uint8_t> Reader::Bytes(std::size_t n) {
  if (!Need(n)) {
    return {};
  }
  std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

Qid Reader::QidField() {
  Qid q;
  q.type = U8();
  q.version = U32();
  q.path = U64();
  return q;
}

std::optional<Header> ParseHeader(std::span<const std::uint8_t> msg) {
  if (msg.size() < 7) {
    return std::nullopt;
  }
  Reader r(msg);
  Header h{};
  h.size = r.U32();
  h.type = static_cast<MsgType>(r.U8());
  h.tag = r.U16();
  if (h.size < 7 || h.size > msg.size()) {
    return std::nullopt;
  }
  return h;
}

}  // namespace uk9p
