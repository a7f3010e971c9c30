// ukplat/virtqueue.h - VirtIO 1.0 split virtqueue, laid out in guest memory.
//
// This is the transport under virtio-net, virtio-blk and virtio-9p in the
// simulation, implemented faithfully: a descriptor table, an available ring
// and a used ring all live in the instance's MemRegion at their guest-physical
// addresses, exactly as a real VMM would see them. The driver side (guest)
// enqueues descriptor chains and kicks; the device side (backend) pops chains,
// reads/writes guest memory through MemRegion, and pushes used entries.
//
// Keeping the rings in guest memory (instead of host-side std::deques) is what
// lets the vhost-net vs vhost-user comparison in Fig 19 be about *costs* and
// not about different code paths: both backends run this same ring code and
// differ only in notification and copy accounting.
#ifndef UKPLAT_VIRTQUEUE_H_
#define UKPLAT_VIRTQUEUE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ukplat/memregion.h"

namespace ukplat {

inline constexpr std::uint16_t kVringDescFNext = 1;
inline constexpr std::uint16_t kVringDescFWrite = 2;

// In-memory descriptor layout (virtio spec 2.6.5).
struct VringDesc {
  std::uint64_t addr;
  std::uint32_t len;
  std::uint16_t flags;
  std::uint16_t next;
};
static_assert(sizeof(VringDesc) == 16);

struct VringUsedElem {
  std::uint32_t id;
  std::uint32_t len;
};
static_assert(sizeof(VringUsedElem) == 8);

class Virtqueue {
 public:
  // One scatter-gather element of a chain. |device_writable| marks buffers the
  // device fills (RX buffers, read responses).
  struct Segment {
    std::uint64_t gpa = 0;
    std::uint32_t len = 0;
    bool device_writable = false;
  };

  struct Completion {
    void* cookie = nullptr;
    std::uint32_t written = 0;  // bytes the device wrote into writable segments
  };

  struct DeviceChain {
    std::uint16_t head = 0;
    std::vector<Segment> segments;
  };

  // Computes the bytes of guest memory a queue of |qsize| entries needs
  // (descriptor table + avail ring + used ring, with spec alignments).
  static std::size_t FootprintBytes(std::uint16_t qsize);

  // Places the rings at |base_gpa| inside |mem|. |qsize| must be a power of
  // two per the virtio spec. The area must have been carved by the caller.
  Virtqueue(MemRegion* mem, std::uint64_t base_gpa, std::uint16_t qsize);

  // ---- Driver (guest) side -------------------------------------------------

  // Enqueues a descriptor chain. Returns false when not enough free
  // descriptors remain. |cookie| is handed back on completion.
  bool Enqueue(std::span<const Segment> segments, void* cookie);

  // True if the device should be notified (we model VIRTIO_F_EVENT_IDX-less
  // behaviour: notify whenever new buffers were published since last kick).
  bool NeedsKick() const { return avail_idx_shadow_ != kicked_idx_; }
  void MarkKicked() { kicked_idx_ = avail_idx_shadow_; }

  // Reaps one completion from the used ring, if any.
  std::optional<Completion> DequeueCompletion();

  // True if the device published completions the driver has not reaped yet.
  bool HasCompletions() const {
    return used_last_seen_ != mem_->Read<std::uint16_t>(used_gpa_ + 2);
  }

  std::uint16_t NumFree() const { return num_free_; }

  // ---- Device (backend) side ------------------------------------------------

  // Pops the next available chain, walking the descriptor table in guest
  // memory. Returns nullopt when the avail ring is empty. Malformed chains
  // (bad index, loop longer than the queue) abort the walk and count as a
  // bad_chain; tests assert this stays zero in healthy runs.
  std::optional<DeviceChain> DevicePop();

  // Publishes a used entry for |head| with |written| bytes filled in.
  void DevicePush(std::uint16_t head, std::uint32_t written);

  // True if the driver has buffers the device has not consumed yet.
  bool DeviceHasWork() const;

  std::uint64_t bad_chains() const { return bad_chains_; }

 private:
  std::uint64_t DescGpa(std::uint16_t i) const { return desc_gpa_ + i * sizeof(VringDesc); }
  void FreeChain(std::uint16_t head);

  MemRegion* mem_;
  std::uint16_t qsize_ = 0;
  std::uint64_t desc_gpa_ = 0;
  std::uint64_t avail_gpa_ = 0;   // {u16 flags; u16 idx; u16 ring[qsize]}
  std::uint64_t used_gpa_ = 0;    // {u16 flags; u16 idx; VringUsedElem ring[qsize]}

  // Driver-private state (mirrors what a real driver keeps outside the rings).
  std::uint16_t free_head_ = 0;
  std::uint16_t num_free_ = 0;
  std::uint16_t avail_idx_shadow_ = 0;   // next avail->idx value to publish
  std::uint16_t kicked_idx_ = 0;
  std::uint16_t used_last_seen_ = 0;
  std::vector<void*> cookies_;

  // Device-private state.
  std::uint16_t device_last_avail_ = 0;

  std::uint64_t bad_chains_ = 0;
};

}  // namespace ukplat

#endif  // UKPLAT_VIRTQUEUE_H_
