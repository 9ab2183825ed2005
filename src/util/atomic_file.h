// Crash-safe whole-file writes.
#pragma once

#include <string>
#include <string_view>

namespace bdlfi::util {

/// Writes `text` and a terminating newline to `path` atomically: a temp file
/// beside it, fflush + fsync, then rename. A reader sees either the previous
/// complete file or the new one, never a torn write. False on any I/O
/// failure, with the temp file removed and any previous file at `path` left
/// intact.
bool write_text_atomic(const std::string& path, std::string_view text);

}  // namespace bdlfi::util
