#include "util/atomic_file.h"

#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace bdlfi::util {

bool write_text_atomic(const std::string& path, std::string_view text) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
            std::fputc('\n', f) != EOF && std::fflush(f) == 0;
#if defined(__unix__) || defined(__APPLE__)
  if (ok) ok = ::fsync(fileno(f)) == 0;
#endif
  ok = std::fclose(f) == 0 && ok;
  // rename() is atomic within a filesystem.
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace bdlfi::util
