#include "io/mmap_file.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>
#include <utility>

#include "io/io_error.h"

#if defined(__unix__) || defined(__APPLE__)
#define LASH_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace lash {

namespace {

[[noreturn]] void OpenFail(const std::string& path, const std::string& what) {
  throw IoError(IoErrorKind::kOpenFailed, 0,
                "mmap: " + what + ": " + path +
                    (errno != 0 ? std::string(" (") + std::strerror(errno) + ")"
                                : std::string()));
}

}  // namespace

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this == &other) return *this;
  Reset();
  data_ = other.data_;
  size_ = other.size_;
  valid_ = other.valid_;
  fallback_ = std::move(other.fallback_);
  other.data_ = nullptr;
  other.size_ = 0;
  other.valid_ = false;
  return *this;
}

void MmapFile::Reset() {
#if LASH_HAVE_MMAP
  if (data_ != nullptr && fallback_ == nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
  }
#endif
  fallback_.reset();
  data_ = nullptr;
  size_ = 0;
  valid_ = false;
}

MmapFile MmapFile::Open(const std::string& path) {
  MmapFile file;
#if LASH_HAVE_MMAP
  errno = 0;
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) OpenFail(path, "cannot open file");
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    OpenFail(path, "cannot stat file");
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    errno = 0;
    OpenFail(path, "not a regular file");
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    // mmap(len=0) is EINVAL; an empty mapping is simply data_ == nullptr.
    ::close(fd);
    file.valid_ = true;
    return file;
  }
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // The mapping keeps the file alive; the fd is not needed.
  if (base == MAP_FAILED) OpenFail(path, "cannot map file");
  // Advisory only — the snapshot reader scans header + small sections
  // front to back at load; ignore failures.
  (void)::madvise(base, size, MADV_SEQUENTIAL);
  file.data_ = static_cast<const char*>(base);
  file.size_ = size;
  file.valid_ = true;
  return file;
#else
  // Fallback for platforms without mmap: same interface over a heap copy
  // (no page sharing, but identical lifetime semantics).
  std::ifstream in(path, std::ios::binary);
  if (!in) OpenFail(path, "cannot open file");
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  file.fallback_ = std::make_unique<char[]>(bytes.size() ? bytes.size() : 1);
  std::memcpy(file.fallback_.get(), bytes.data(), bytes.size());
  file.data_ = file.fallback_.get();
  file.size_ = bytes.size();
  file.valid_ = true;
  return file;
#endif
}

}  // namespace lash
