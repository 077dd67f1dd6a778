#include "sim/arena.h"

#include <bit>
#include <cstddef>
#include <cstring>

namespace vroom::sim {

namespace {

std::size_t align_up(std::size_t n, std::size_t align) {
  return (n + align - 1) & ~(align - 1);
}

// The size class of a recyclable request: the smallest c with
// kMinBlock << c >= bytes.
std::size_t size_class(std::size_t bytes) {
  return bytes <= RecyclingResource::kMinBlock
             ? 0
             : static_cast<std::size_t>(std::bit_width(
                   (bytes - 1) / RecyclingResource::kMinBlock));
}

bool recyclable(std::size_t bytes, std::size_t align) {
  return bytes <= RecyclingResource::kMaxBlock &&
         align <= alignof(std::max_align_t);
}

}  // namespace

void Arena::add_chunk(std::size_t bytes) {
  // Reuse a retained chunk if the next one already fits; otherwise grow
  // geometrically so a world of any size settles into O(log size) chunks.
  if (current_ + 1 < chunks_.size() && chunks_[current_ + 1].size >= bytes) {
    ++current_;
    offset_ = 0;
    return;
  }
  std::size_t size = next_chunk_bytes_;
  while (size < bytes) size *= 2;
  next_chunk_bytes_ = size * 2;
  Chunk chunk;
  chunk.data = std::make_unique<char[]>(size);
  chunk.size = size;
  bytes_reserved_ += size;
  chunks_.push_back(std::move(chunk));
  current_ = chunks_.size() - 1;
  offset_ = 0;
}

void* Arena::do_allocate(std::size_t bytes, std::size_t align) {
  if (bytes == 0) bytes = 1;
  if (chunks_.empty()) add_chunk(bytes);
  std::size_t at = align_up(offset_, align);
  if (at + bytes > chunks_[current_].size) {
    add_chunk(bytes);
    at = 0;  // chunk starts max-aligned (operator new[])
  }
  char* p = chunks_[current_].data.get() + at;
  bytes_used_ += (at - offset_) + bytes;
  offset_ = at + bytes;
  return p;
}

std::string_view Arena::copy_string(std::string_view s) {
  char* p = static_cast<char*>(do_allocate(s.size() + 1, 1));
  std::memcpy(p, s.data(), s.size());
  p[s.size()] = '\0';
  return std::string_view(p, s.size());
}

void Arena::reset() {
  current_ = 0;
  offset_ = 0;
  bytes_used_ = 0;
}

RecyclingResource::~RecyclingResource() {
  for (std::size_t c = 0; c < kClasses; ++c) {
    while (free_[c] != nullptr) {
      void* p = free_[c];
      free_[c] = *static_cast<void**>(p);
      upstream_->deallocate(p, kMinBlock << c, alignof(std::max_align_t));
    }
  }
}

void* RecyclingResource::do_allocate(std::size_t bytes, std::size_t align) {
  if (!recyclable(bytes, align)) return upstream_->allocate(bytes, align);
  const std::size_t c = size_class(bytes);
  if (void* p = free_[c]; p != nullptr) {
    free_[c] = *static_cast<void**>(p);
    return p;
  }
  return upstream_->allocate(kMinBlock << c, alignof(std::max_align_t));
}

void RecyclingResource::do_deallocate(void* p, std::size_t bytes,
                                      std::size_t align) {
  if (!recyclable(bytes, align)) {
    upstream_->deallocate(p, bytes, align);
    return;
  }
  const std::size_t c = size_class(bytes);
  *static_cast<void**>(p) = free_[c];
  free_[c] = p;
}

namespace {

// One pool per thread, mirroring the EventLoop pool: fleet workers never
// share arenas, and an arena acquired on a thread returns to that thread's
// pool.
struct ArenaPool {
  std::vector<std::unique_ptr<Arena>> free_list;

  Arena* acquire() {
    if (free_list.empty()) return new Arena();
    Arena* arena = free_list.back().release();
    free_list.pop_back();
    return arena;
  }

  void release(Arena* arena) {
    arena->reset();
    free_list.emplace_back(arena);
  }
};

ArenaPool& thread_pool() {
  thread_local ArenaPool pool;
  return pool;
}

}  // namespace

PooledArena::PooledArena() : arena_(thread_pool().acquire()) {}

PooledArena::~PooledArena() { thread_pool().release(arena_); }

}  // namespace vroom::sim
