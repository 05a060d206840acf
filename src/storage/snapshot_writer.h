// Snapshot builder: serializes a fully-indexed TrajectoryDatabase.
//
// The writer never re-derives anything: every section is a byte-for-byte
// dump of a container column already in memory (plus the flattened
// vocabulary), so build-then-write equals what the zero-copy loader views
// back in. Writes go to `<path>.tmp` and are renamed into place after
// fsync, so readers never observe a half-written snapshot.

#ifndef UOTS_STORAGE_SNAPSHOT_WRITER_H_
#define UOTS_STORAGE_SNAPSHOT_WRITER_H_

#include <cstdint>
#include <string>

#include "core/database.h"
#include "util/status.h"

namespace uots {
namespace storage {

struct WriteOptions {
  /// Recorded in the superblock's tool field (truncated to 27 chars).
  std::string tool = "uots_snapshot";
  /// Build timestamp for the superblock; 0 means "use the current time".
  int64_t created_unix_s = 0;
};

/// Writes `db` as a kFormatVersion (2) snapshot at `path` (atomic
/// replace); the oracle sections are empty when `db` carries no oracle.
Status WriteSnapshot(const TrajectoryDatabase& db, const std::string& path,
                     const WriteOptions& opts = {});

}  // namespace storage
}  // namespace uots

#endif  // UOTS_STORAGE_SNAPSHOT_WRITER_H_
