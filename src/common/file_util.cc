#include "common/file_util.h"

#include <fcntl.h>
#include <unistd.h>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <sys/stat.h>
#endif

#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/io_env.h"
#include "common/string_util.h"

namespace atune {
namespace {

std::array<uint32_t, 256> MakeCrc32Table() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

Status Errno(const char* op, const std::string& path) {
  return Status::IoError(
      StrFormat("%s '%s': %s", op, path.c_str(), std::strerror(errno)));
}

}  // namespace

uint32_t Crc32(uint32_t seed, const void* data, size_t n) {
  static const std::array<uint32_t, 256> table = MakeCrc32Table();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

Status ReadFileToString(const std::string& path, std::string* out) {
  out->clear();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (errno == ENOENT) {
      return Status::NotFound(StrFormat("no such file: '%s'", path.c_str()));
    }
    return Errno("open", path);
  }
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, n);
  }
  bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Errno("read", path);
  return Status::OK();
}

Status AtomicWriteFile(const std::string& path, const std::string& contents,
                       double* sync_seconds) {
  IoEnv* env = IoEnv::Current();
  const std::string tmp = path + ".tmp";
  auto file = env->OpenWritable(tmp, IoEnv::OpenMode::kTruncate);
  if (!file.ok()) return file.status();
  Status status =
      WriteFully(env, file->get(), contents.data(), contents.size());
  if (status.ok()) {
    auto begin = std::chrono::steady_clock::now();
    status = (*file)->Sync();
    if (sync_seconds != nullptr) {
      *sync_seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - begin)
                          .count();
    }
  }
  if (status.ok()) status = (*file)->Close();
  if (!status.ok()) {
    (void)(*file)->Close();
    (void)env->Unlink(tmp);
    return status;
  }
  status = env->Rename(tmp, path);
  if (!status.ok()) {
    (void)env->Unlink(tmp);
    return status;
  }
  // Without this the rename — and hence the publish itself — is not
  // crash-durable: the new directory entry may still be only in memory.
  return env->SyncDir(path);
}

Status CommitTempFile(std::FILE* f, const std::string& path) {
  IoEnv* env = IoEnv::Current();
  const std::string tmp = path + ".tmp";
  if (f == nullptr) return Status::InvalidArgument("CommitTempFile: null file");
  // The stream was opened by the caller, outside the IoEnv seam, so the
  // flush/fsync stay raw; the publish itself (rename + dir sync) is routed
  // through the env like every other durability op.
  bool flushed = std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  Status flush_error = flushed ? Status::OK() : Errno("flush", tmp);
  if (std::fclose(f) != 0 && flushed) flush_error = Errno("close", tmp);
  if (!flush_error.ok()) {
    (void)env->Unlink(tmp);
    return flush_error;
  }
  Status status = env->Rename(tmp, path);
  if (!status.ok()) {
    (void)env->Unlink(tmp);
    return status;
  }
  return env->SyncDir(path);
}

#if defined(__unix__) || defined(__APPLE__)

Result<MappedFile> MappedFile::Map(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound(StrFormat("no such file: '%s'", path.c_str()));
    }
    return Errno("open", path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status s = Errno("stat", path);
    ::close(fd);
    return s;
  }
  MappedFile mapped;
  mapped.size_ = static_cast<size_t>(st.st_size);
  if (mapped.size_ > 0) {
    void* addr = ::mmap(nullptr, mapped.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
      Status s = Errno("mmap", path);
      ::close(fd);
      return s;
    }
    mapped.addr_ = addr;
  }
  // The mapping outlives the descriptor.
  ::close(fd);
  return mapped;
}

bool MappedFile::Supported() { return true; }

void MappedFile::Unmap() {
  if (addr_ != nullptr) ::munmap(addr_, size_);
  addr_ = nullptr;
  size_ = 0;
}

#else  // !(__unix__ || __APPLE__)

Result<MappedFile> MappedFile::Map(const std::string& path) {
  (void)path;
  return Status::Unimplemented("mmap is not available on this platform");
}

bool MappedFile::Supported() { return false; }

void MappedFile::Unmap() {
  addr_ = nullptr;
  size_ = 0;
}

#endif  // __unix__ || __APPLE__

MappedFile::~MappedFile() { Unmap(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : addr_(other.addr_), size_(other.size_) {
  other.addr_ = nullptr;
  other.size_ = 0;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    Unmap();
    addr_ = other.addr_;
    size_ = other.size_;
    other.addr_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

Status TruncateFile(const std::string& path, uint64_t length) {
  IoEnv* env = IoEnv::Current();
  ATUNE_RETURN_IF_ERROR(env->Truncate(path, length));
  auto file = env->OpenWritable(path, IoEnv::OpenMode::kAppend);
  if (!file.ok()) return file.status();
  Status status = (*file)->Sync();
  Status close_status = (*file)->Close();
  return status.ok() ? close_status : status;
}

}  // namespace atune
