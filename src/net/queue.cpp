#include "net/queue.hpp"

namespace osp {

PacketQueue::PacketQueue()
    : serve_(ServeOrder{this}), evict_(EvictOrder{this}) {}

void PacketQueue::reset(std::size_t num_frames) {
  serve_.clear();
  evict_.clear();
  frame_.clear();
  rank_.clear();
  key_.clear();
  free_.clear();
  dead_.assign(num_frames, 0);
  live_count_.assign(num_frames, 0);
  stale_ = 0;
}

void PacketQueue::push(SetId frame, double rank, std::uint64_t key) {
  OSP_REQUIRE_MSG(frame < dead_.size(), "unknown frame " << frame);
  std::uint32_t id;
  if (!free_.empty()) {
    id = free_.back();
    free_.pop_back();
    frame_[id] = frame;
    rank_[id] = rank;
    key_[id] = key;
  } else {
    id = static_cast<std::uint32_t>(frame_.size());
    frame_.push_back(frame);
    rank_.push_back(rank);
    key_.push_back(key);
  }
  serve_.push(id);
  evict_.push(id);
  if (dead_[frame]) {
    ++stale_;  // a packet of a dead frame is born lazily deleted
  } else {
    ++live_count_[frame];
  }
}

template <class Primary, class Secondary>
bool PacketQueue::pop_from(Primary& primary, Secondary& secondary,
                           SetId* frame, std::uint64_t* key) {
  while (!primary.empty()) {
    const std::uint32_t id = primary.pop();
    secondary.erase(id);
    const SetId f = frame_[id];
    const std::uint64_t k = key_[id];
    release(id);
    if (dead_[f]) {  // lazy deletion: already written off by kill_frame
      --stale_;
      continue;
    }
    --live_count_[f];
    *frame = f;
    if (key != nullptr) *key = k;
    return true;
  }
  return false;
}

bool PacketQueue::pop_best(SetId* frame, std::uint64_t* key) {
  return pop_from(serve_, evict_, frame, key);
}

bool PacketQueue::pop_worst(SetId* frame, std::uint64_t* key) {
  return pop_from(evict_, serve_, frame, key);
}

std::size_t PacketQueue::kill_frame(SetId frame) {
  OSP_REQUIRE_MSG(frame < dead_.size(), "unknown frame " << frame);
  if (dead_[frame]) return 0;
  dead_[frame] = 1;
  const std::size_t queued = live_count_[frame];
  live_count_[frame] = 0;
  stale_ += queued;
  return queued;
}

}  // namespace osp
