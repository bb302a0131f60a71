#pragma once
// Content-addressed cache of extracted canonical forms.
//
// The paper's workloads reuse identical circuit blocks heavily — hierarchical
// designs instantiate one multiplier many times, and batch trojan/mutation
// analysis re-verifies near-identical netlists. The expensive half of every
// abstraction-engine job is extraction (backward rewriting + Frobenius lift);
// the cheap half is the coefficient match. This cache keys the *extraction
// result* (a serialized WordFunction, see abstraction/canon_serial.h) on the
// circuit's FNV-1a content hash plus the field (k, P(x)) and the
// serialization format version, so a repeated circuit skips straight to the
// coefficient match.
//
// Integrity model: every entry is framed as
//
//   magic    8 bytes  "GFA_CANF"
//   u32      version  (kCanonEntryVersion)
//   u64      circuit_hash   } the key, stored so a renamed/misfiled entry
//   u32      k              } can never be served for the wrong circuit
//   u64      fingerprint    }
//   u32      payload length, then that many bytes (canon_serial JSON)
//   u32      CRC-32 of everything above
//
// and validated on every get(): bad magic, version skew, key mismatch, or a
// CRC failure drops the entry (and its file) and reports a miss. Damage is
// therefore miss-and-recompute — never a wrong verdict; a hit still runs the
// coefficient match against the requested counterpart. The "cache:corrupt"
// fault site fires in put(), flipping one stored payload byte so tests can
// prove the guard catches it.
//
// Bounded: entries are LRU-evicted past max_bytes. Optionally persistent:
// with a directory configured, entries are mirrored to disk (atomic tmp +
// rename) and warm-loaded by open(), so a drained daemon's
// work survives restarts. All methods are thread-safe.

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "gf/gf2k.h"
#include "util/status.h"

namespace gfa::service {

inline constexpr std::uint32_t kCanonEntryVersion = 1;

/// What a canonical form is content-addressed by. Two jobs may share an
/// entry iff all three match: same circuit text (hash), same field degree,
/// and same fingerprint (modulus + format version — the "options" of
/// extraction that affect the canonical form).
struct CacheKey {
  std::uint64_t circuit_hash = 0;
  unsigned k = 0;
  std::uint64_t fingerprint = 0;

  bool operator==(const CacheKey& rhs) const = default;
};

/// FNV-1a over the field's modulus words and the canon_serial format
/// version: the part of the key that invalidates entries when the field
/// construction or the serialization schema changes.
std::uint64_t cache_fingerprint(const Gf2k& field);

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t corrupt_dropped = 0;
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;
  std::uint64_t max_bytes = 0;
};

class CanonCache {
 public:
  struct Options {
    /// Mirror entries under this directory (empty = memory only).
    std::string directory;
    /// LRU byte bound over the framed entries (0 = a very small cache that
    /// holds nothing — callers should pass a real bound).
    std::uint64_t max_bytes = 64ull << 20;
  };

  explicit CanonCache(Options options);

  /// Validates/creates the directory (kInvalidArgument with the concrete
  /// reason on a missing parent or unwritable path — see
  /// worker::ensure_directory) and warm-loads any persisted entries, oldest
  /// dropped first if they exceed max_bytes. A no-op without a directory.
  Status open();

  /// The payload for `key`, or nullopt on a miss. A damaged entry (CRC,
  /// magic, version, or key mismatch) is dropped — file included — and
  /// reported as a miss.
  std::optional<std::string> get(const CacheKey& key);

  /// Frames and stores `payload` under `key`, evicting LRU entries past
  /// max_bytes, and mirrors the entry to disk when a directory is
  /// configured. Consumes the "cache:corrupt" fault site: when armed, one
  /// stored payload byte is flipped (CRC left stale) so the next get() must
  /// reject the entry. Oversized payloads (> max_bytes alone) are dropped.
  void put(const CacheKey& key, const std::string& payload);

  CacheStats stats() const;

 private:
  struct Entry {
    std::string bytes;      // framed (magic..CRC)
    std::uint64_t last_use = 0;
  };

  std::string file_of(const CacheKey& key) const;
  void evict_locked();
  void drop_locked(const std::string& name, bool count_corrupt);

  const Options options_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;  // by key_name
  std::uint64_t bytes_ = 0;
  std::uint64_t use_clock_ = 0;
  CacheStats stats_;
};

/// "0123456789abcdef.8.fedcba9876543210" — the key's canonical file stem.
std::string key_name(const CacheKey& key);

/// Frames a payload (see the header comment's layout).
std::string frame_entry(const CacheKey& key, const std::string& payload);

/// Validates a framed entry against `key`; returns the payload or why the
/// entry must be dropped.
Result<std::string> unframe_entry(const CacheKey& key,
                                  const std::string& bytes);

}  // namespace gfa::service
