#include "graph/graph_pack.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace rcc {
namespace {

/// Record buffer flushed to disk at this size: large enough that packing a
/// billion-edge graph is a few thousand write calls, small enough that the
/// writer's own footprint is invisible next to any real instance.
constexpr std::size_t kWriterBufferBytes = std::size_t{1} << 20;

/// The validation / drop_resident pages-behind window: residency released
/// every 8 MiB of consumed records, so the constructor's full sequential
/// pass over an arbitrarily large pack holds one window resident, not the
/// file.
constexpr std::uint64_t kResidencyWindowBytes = std::uint64_t{8} << 20;

void encode_header(std::uint8_t* out, VertexId num_vertices,
                   std::uint64_t num_edges, bool weighted) {
  std::uint8_t* p = out;
  const auto put32 = [&p](std::uint32_t v) {
    std::memcpy(p, &v, sizeof v);
    p += sizeof v;
  };
  const auto put16 = [&p](std::uint16_t v) {
    std::memcpy(p, &v, sizeof v);
    p += sizeof v;
  };
  put32(kPackMagic);
  put16(kPackVersion);
  put16(weighted ? kPackFlagWeighted : 0);
  put32(num_vertices);
  put32(0);  // reserved
  std::memcpy(p, &num_edges, sizeof num_edges);
}

}  // namespace

void pack_fail(const char* fmt, ...) {
  std::fputs("graph pack: ", stderr);
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
  std::abort();
}

// ---------------------------------------------------------------- PackWriter

PackWriter::PackWriter(const std::string& path, VertexId num_vertices,
                       bool weighted)
    : path_(path), num_vertices_(num_vertices), weighted_(weighted) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    pack_fail("%s: cannot open for writing: %s", path.c_str(),
              std::strerror(errno));
  }
  file_ = f;
  buffer_.reserve(kWriterBufferBytes);
  std::uint8_t header[kPackHeaderBytes];
  encode_header(header, num_vertices_, 0, weighted_);  // m patched on finish
  if (std::fwrite(header, 1, sizeof header, f) != sizeof header) {
    pack_fail("%s: header write failed: %s", path.c_str(),
              std::strerror(errno));
  }
}

PackWriter::~PackWriter() { finish(); }

void PackWriter::add(VertexId u, VertexId v) {
  RCC_CHECK(!weighted_);
  RCC_CHECK(u != v && u < num_vertices_ && v < num_vertices_);
  const Edge e = make_edge(u, v);
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&e);
  buffer_.insert(buffer_.end(), bytes, bytes + sizeof e);
  ++edges_written_;
  if (buffer_.size() >= kWriterBufferBytes) flush();
}

void PackWriter::add(VertexId u, VertexId v, double weight) {
  RCC_CHECK(weighted_);
  RCC_CHECK(u != v && u < num_vertices_ && v < num_vertices_);
  RCC_CHECK(weight >= 0.0 && std::isfinite(weight));
  const WeightedEdge e{u, v, weight};
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&e);
  buffer_.insert(buffer_.end(), bytes, bytes + sizeof e);
  ++edges_written_;
  if (buffer_.size() >= kWriterBufferBytes) flush();
}

void PackWriter::flush() {
  if (buffer_.empty()) return;
  auto* f = static_cast<std::FILE*>(file_);
  if (std::fwrite(buffer_.data(), 1, buffer_.size(), f) != buffer_.size()) {
    pack_fail("%s: record write failed: %s", path_.c_str(),
              std::strerror(errno));
  }
  buffer_.clear();
}

void PackWriter::finish() {
  if (file_ == nullptr) return;
  flush();
  auto* f = static_cast<std::FILE*>(file_);
  // Patch the true record count into the header now that it is known.
  std::uint8_t header[kPackHeaderBytes];
  encode_header(header, num_vertices_, edges_written_, weighted_);
  if (std::fseek(f, 0, SEEK_SET) != 0 ||
      std::fwrite(header, 1, sizeof header, f) != sizeof header ||
      std::fclose(f) != 0) {
    pack_fail("%s: finalizing the header failed: %s", path_.c_str(),
              std::strerror(errno));
  }
  file_ = nullptr;
}

void GraphPack::write(const EdgeList& edges, const std::string& path) {
  PackWriter writer(path, edges.num_vertices(), /*weighted=*/false);
  for (const Edge& e : edges) writer.add(e);
  writer.finish();
}

void GraphPack::write(const WeightedEdgeList& edges, const std::string& path) {
  PackWriter writer(path, edges.num_vertices, /*weighted=*/true);
  for (const WeightedEdge& e : edges.edges) writer.add(e.u, e.v, e.weight);
  writer.finish();
}

// --------------------------------------------------------------- MappedGraph

MappedGraph::MappedGraph(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    pack_fail("%s: cannot open: %s", path.c_str(), std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    pack_fail("%s: cannot stat: %s", path.c_str(), std::strerror(errno));
  }
  file_bytes_ = static_cast<std::uint64_t>(st.st_size);
  if (file_bytes_ < kPackHeaderBytes) {
    pack_fail("%s: truncated header (file is %llu bytes, header needs %zu)",
              path.c_str(), static_cast<unsigned long long>(file_bytes_),
              kPackHeaderBytes);
  }
  map_ = ::mmap(nullptr, file_bytes_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file referenced
  if (map_ == MAP_FAILED) {
    map_ = nullptr;
    pack_fail("%s: mmap failed: %s", path.c_str(), std::strerror(errno));
  }
  // The validating pass below and the partitioner's counting pass both read
  // front to back; tell the kernel to read ahead aggressively.
  ::madvise(map_, file_bytes_, MADV_SEQUENTIAL);

  const auto* base = static_cast<const std::uint8_t*>(map_);
  std::uint32_t magic, n, reserved;
  std::uint16_t version, flags;
  std::memcpy(&magic, base + 0, sizeof magic);
  std::memcpy(&version, base + 4, sizeof version);
  std::memcpy(&flags, base + 6, sizeof flags);
  std::memcpy(&n, base + 8, sizeof n);
  std::memcpy(&reserved, base + 12, sizeof reserved);
  std::memcpy(&num_edges_, base + 16, sizeof num_edges_);
  if (magic != kPackMagic) {
    pack_fail("%s: bad magic 0x%08x (expected 0x%08x)", path.c_str(), magic,
              kPackMagic);
  }
  if (version != kPackVersion) {
    pack_fail("%s: version %u, this build reads version %u", path.c_str(),
              version, kPackVersion);
  }
  if ((flags & ~kPackFlagWeighted) != 0) {
    pack_fail("%s: unknown flag bits 0x%04x", path.c_str(),
              flags & ~kPackFlagWeighted);
  }
  if (reserved != 0) {
    pack_fail("%s: reserved header word is 0x%08x, must be 0", path.c_str(),
              reserved);
  }
  weighted_ = (flags & kPackFlagWeighted) != 0;
  num_vertices_ = n;
  const std::uint64_t expected =
      kPackHeaderBytes + num_edges_ * static_cast<std::uint64_t>(record_bytes());
  if (file_bytes_ != expected) {
    pack_fail(
        "%s: header claims %llu %s records (%llu file bytes), file has %llu",
        path.c_str(), static_cast<unsigned long long>(num_edges_),
        weighted_ ? "weighted" : "unweighted",
        static_cast<unsigned long long>(expected),
        static_cast<unsigned long long>(file_bytes_));
  }
  validate(path);
}

void MappedGraph::validate(const std::string& path) const {
  // One sequential sweep over every record; residency is dropped a window
  // behind the cursor, so validating a larger-than-RAM pack holds one
  // window resident. Later readers (the partitioner's two passes) re-fault
  // the pages from the page cache.
  const std::size_t rec = record_bytes();
  const std::uint64_t window_edges = kResidencyWindowBytes / rec;
  std::uint64_t dropped_below = 0;
  for (std::uint64_t i = 0; i < num_edges_; ++i) {
    const std::uint8_t* r = record_base() + i * rec;
    std::uint32_t u, v;
    std::memcpy(&u, r + 0, sizeof u);
    std::memcpy(&v, r + 4, sizeof v);
    if (u >= num_vertices_ || v >= num_vertices_) {
      pack_fail("%s: record %llu endpoints (%u, %u) out of universe [0, %u)",
                path.c_str(), static_cast<unsigned long long>(i), u, v,
                num_vertices_);
    }
    if (u == v) {
      pack_fail("%s: record %llu is a self-loop at vertex %u", path.c_str(),
                static_cast<unsigned long long>(i), u);
    }
    if (!weighted_ && u > v) {
      pack_fail("%s: record %llu (%u, %u) is not normalized (u < v)",
                path.c_str(), static_cast<unsigned long long>(i), u, v);
    }
    if (weighted_) {
      double w;
      std::memcpy(&w, r + 8, sizeof w);
      if (std::isnan(w)) {
        pack_fail("%s: record %llu weight is NaN", path.c_str(),
                  static_cast<unsigned long long>(i));
      }
      if (w < 0.0) {
        pack_fail("%s: record %llu weight %f is negative", path.c_str(),
                  static_cast<unsigned long long>(i), w);
      }
      if (std::isinf(w)) {
        pack_fail("%s: record %llu weight is infinite", path.c_str(),
                  static_cast<unsigned long long>(i));
      }
    }
    if (i + 1 - dropped_below >= 2 * window_edges) {
      drop_resident(dropped_below, dropped_below + window_edges);
      dropped_below += window_edges;
    }
  }
}

MappedGraph::~MappedGraph() {
  if (map_ != nullptr) ::munmap(map_, file_bytes_);
}

MappedGraph::MappedGraph(MappedGraph&& other) noexcept
    : map_(other.map_),
      file_bytes_(other.file_bytes_),
      num_vertices_(other.num_vertices_),
      num_edges_(other.num_edges_),
      weighted_(other.weighted_) {
  other.map_ = nullptr;
  other.file_bytes_ = 0;
  other.num_edges_ = 0;
  other.num_vertices_ = 0;
}

MappedGraph& MappedGraph::operator=(MappedGraph&& other) noexcept {
  if (this != &other) {
    if (map_ != nullptr) ::munmap(map_, file_bytes_);
    map_ = other.map_;
    file_bytes_ = other.file_bytes_;
    num_vertices_ = other.num_vertices_;
    num_edges_ = other.num_edges_;
    weighted_ = other.weighted_;
    other.map_ = nullptr;
    other.file_bytes_ = 0;
    other.num_edges_ = 0;
    other.num_vertices_ = 0;
  }
  return *this;
}

const std::uint8_t* MappedGraph::record_base() const {
  return static_cast<const std::uint8_t*>(map_) + kPackHeaderBytes;
}

EdgeSpan MappedGraph::edges() const {
  RCC_CHECK(!weighted_);
  return EdgeSpan(reinterpret_cast<const Edge*>(record_base()),
                  static_cast<std::size_t>(num_edges_), num_vertices_);
}

WeightedEdgeSpan MappedGraph::weighted_edges() const {
  RCC_CHECK(weighted_);
  return WeightedEdgeSpan(reinterpret_cast<const WeightedEdge*>(record_base()),
                          static_cast<std::size_t>(num_edges_), num_vertices_);
}

void MappedGraph::drop_resident(std::size_t begin_edge,
                                std::size_t end_edge) const {
  RCC_CHECK(begin_edge <= end_edge && end_edge <= num_edges_);
  const long page = ::sysconf(_SC_PAGESIZE);
  const auto psize = static_cast<std::uintptr_t>(page);
  const auto base = reinterpret_cast<std::uintptr_t>(record_base());
  std::uintptr_t lo = base + begin_edge * record_bytes();
  std::uintptr_t hi = base + end_edge * record_bytes();
  lo = (lo + psize - 1) / psize * psize;  // only whole pages inside the range
  hi = hi / psize * psize;
  if (lo >= hi) return;
  ::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_DONTNEED);
}

}  // namespace rcc
