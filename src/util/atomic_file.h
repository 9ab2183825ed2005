// Crash-safe whole-file writes.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace bdlfi::util {

/// A file written in pieces and published atomically: append() writes to a
/// temp file beside `path`; commit() adds a terminating newline, fflush +
/// fsync, then renames the temp file over `path`. A reader sees either the
/// previous complete file or the new one, never a torn write. On any I/O
/// failure, or when destroyed uncommitted, the temp file is removed and any
/// previous file at `path` is left intact. Writing a long document piece by
/// piece keeps only the current piece in memory.
class AtomicTextWriter {
 public:
  explicit AtomicTextWriter(const std::string& path);
  ~AtomicTextWriter();
  AtomicTextWriter(const AtomicTextWriter&) = delete;
  AtomicTextWriter& operator=(const AtomicTextWriter&) = delete;

  /// False once any write has failed (this one or an earlier one).
  bool append(std::string_view text);
  /// Publishes the file. False on any I/O failure, then or before.
  bool commit();

 private:
  std::string path_, tmp_;
  std::FILE* f_ = nullptr;
  bool ok_ = false;
};

/// Writes `text` and a terminating newline to `path` atomically, as one
/// AtomicTextWriter piece.
bool write_text_atomic(const std::string& path, std::string_view text);

}  // namespace bdlfi::util
