#include "erasure/codec_family.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "gf/gf256.h"
#include "gf/gf256_kernels.h"
#include "gf/matrix.h"

namespace ecstore {

bool CodecFamily::CanDecode(std::span<const ChunkIndex> indices) const {
  // MDS default: any DataChunks() distinct valid chunks decode.
  std::vector<bool> seen(TotalChunks(), false);
  std::uint32_t distinct = 0;
  for (const ChunkIndex c : indices) {
    if (c >= TotalChunks() || seen[c]) continue;
    seen[c] = true;
    ++distinct;
  }
  return distinct >= DataChunks();
}

std::vector<std::uint8_t> CodecFamily::Decode(
    std::span<const IndexedChunk> chunks, std::size_t block_size) const {
  auto block = TryDecode(chunks, block_size);
  if (!block) {
    throw std::invalid_argument(Name() + ": chunks do not decode the block");
  }
  return std::move(*block);
}

namespace {

// ---------------------------------------------------------------------------
// The systematic-code engine: all linear coding of the module.
// ---------------------------------------------------------------------------

/// The k chunks a decode consumes: each one's generator row and bytes.
struct DecodeSet {
  std::vector<std::size_t> rows;
  std::vector<const gf::Elem*> srcs;
};

/// A systematic linear code over GF(2^8): the k data chunks are the
/// identity rows of the generator, every other chunk is a parity row
/// applied to the data. Each linear family is a generator for this
/// engine plus a repair policy. Stateless after construction.
class SystematicCode {
 public:
  /// `generator` is (k + p) x k with the k x k identity on top.
  explicit SystematicCode(gf::Matrix generator)
      : generator_(std::move(generator)), k_(generator_.cols()) {
    // Split-nibble product tables for the parity rows, precomputed once
    // instead of once per Encode call: parity_tabs_[p * k + j] holds the
    // tables for generator(k + p, j).
    const std::size_t parities = generator_.rows() - k_;
    parity_tabs_.resize(parities * k_);
    for (std::size_t p = 0; p < parities; ++p) {
      for (std::size_t j = 0; j < k_; ++j) {
        gf::BuildMulTable(generator_.At(k_ + p, j), parity_tabs_[p * k_ + j]);
      }
    }
  }

  const gf::Matrix& generator() const { return generator_; }

  /// Encodes `data` (at most k * chunk_size bytes; the tail is zero
  /// padded) into one chunk of `chunk_size` bytes per generator row.
  std::vector<ChunkData> Encode(std::span<const std::uint8_t> data,
                                std::size_t chunk_size) const {
    std::vector<ChunkData> chunks(generator_.rows());

    // Systematic chunks: a straight split of the data, zero-padded at the
    // tail so every chunk is exactly chunk_size bytes. Copy-construct
    // from the data range (one pass) instead of zero-filling then
    // overwriting.
    for (std::size_t i = 0; i < k_; ++i) {
      const std::size_t offset = std::min(i * chunk_size, data.size());
      const std::size_t n = std::min(chunk_size, data.size() - offset);
      chunks[i].reserve(chunk_size);
      chunks[i].assign(data.begin() + offset, data.begin() + offset + n);
      chunks[i].resize(chunk_size, 0);
    }
    // Parity chunks: one fused pass over all k sources per parity row.
    // The kernel overwrites its destination (accumulate=false), so the
    // parity buffer is never read.
    std::vector<const gf::Elem*> srcs(k_);
    for (std::size_t j = 0; j < k_; ++j) srcs[j] = chunks[j].data();
    const auto& kernels = gf::ActiveKernels();
    for (std::size_t p = 0; p + k_ < chunks.size(); ++p) {
      chunks[k_ + p].resize(chunk_size);
      kernels.mul_add_multi(parity_tabs_.data() + p * k_, srcs.data(), k_,
                            chunks[k_ + p].data(), chunk_size,
                            /*accumulate=*/false);
    }
    return chunks;
  }

  /// Writes the first out.size() (<= k * chunk_size) bytes of the data
  /// from k chunks whose generator rows are linearly independent.
  void Decode(const DecodeSet& set, std::size_t chunk_size,
              std::span<std::uint8_t> out) const {
    // Fast path: all k systematic chunks present — reassembly only.
    const bool all_systematic =
        std::all_of(set.rows.begin(), set.rows.end(),
                    [&](std::size_t row) { return row < k_; });
    if (all_systematic) {
      for (std::size_t i = 0; i < k_; ++i) {
        const std::size_t offset = set.rows[i] * chunk_size;
        if (offset >= out.size()) continue;
        const std::size_t n = std::min(chunk_size, out.size() - offset);
        std::memcpy(out.data() + offset, set.srcs[i], n);
      }
      return;
    }

    // General path: invert the k x k submatrix of the rows we hold. The
    // product (inverse * held_chunks) yields the k systematic chunks.
    gf::Matrix sub = generator_.SelectRows(set.rows);
    if (!sub.Invert()) {
      // Callers select independent rows; guard anyway.
      throw std::runtime_error("SystematicCode: singular decode matrix");
    }

    // Product tables for the inverse, built once per decode (not once per
    // matrix cell application), then one fused pass per recovered row.
    std::vector<gf::MulTable> tabs(k_ * k_);
    for (std::size_t i = 0; i < k_; ++i) {
      for (std::size_t j = 0; j < k_; ++j) {
        gf::BuildMulTable(sub.At(i, j), tabs[i * k_ + j]);
      }
    }
    const auto& kernels = gf::ActiveKernels();

    std::vector<std::uint8_t> recovered;
    for (std::size_t data_row = 0; data_row < k_; ++data_row) {
      const std::size_t offset = data_row * chunk_size;
      if (offset >= out.size()) continue;
      const std::size_t n = std::min(chunk_size, out.size() - offset);
      // Rows that fit entirely inside the output decode straight into
      // it; only a truncated tail row needs the bounce buffer.
      if (n != chunk_size) recovered.resize(chunk_size);
      std::uint8_t* dst =
          (n == chunk_size) ? out.data() + offset : recovered.data();
      kernels.mul_add_multi(tabs.data() + data_row * k_, set.srcs.data(), k_,
                            dst, chunk_size, /*accumulate=*/false);
      if (n != chunk_size) std::memcpy(out.data() + offset, dst, n);
    }
  }

  /// Writes chunk `row` of the encoding of `data` (exactly k * chunk_size
  /// bytes) to `out`: the one-row re-encode a repair needs.
  void EncodeRow(std::size_t row, const std::uint8_t* data,
                 std::size_t chunk_size, std::uint8_t* out) const {
    if (row < k_) {
      std::memcpy(out, data + row * chunk_size, chunk_size);
      return;
    }
    std::vector<const gf::Elem*> srcs(k_);
    for (std::size_t j = 0; j < k_; ++j) srcs[j] = data + j * chunk_size;
    gf::ActiveKernels().mul_add_multi(parity_tabs_.data() + (row - k_) * k_,
                                      srcs.data(), k_, out, chunk_size,
                                      /*accumulate=*/false);
  }

 private:
  gf::Matrix generator_;
  std::size_t k_;
  std::vector<gf::MulTable> parity_tabs_;
};

/// The first DataChunks() distinct in-range chunks, as a decode set;
/// nullopt when there are fewer. Throws on a selected chunk that is not
/// `chunk_size` bytes.
std::optional<DecodeSet> FirstKDistinct(const CodecFamily& family,
                                        std::span<const IndexedChunk> chunks,
                                        std::size_t chunk_size) {
  const std::uint32_t k = family.DataChunks();
  // A 256-bit seen-bitmap makes duplicate detection O(1) per chunk
  // (indices are < TotalChunks() <= 256).
  std::array<std::uint64_t, 4> seen{};
  std::vector<const IndexedChunk*> use;
  use.reserve(k);
  for (const IndexedChunk& c : chunks) {
    if (c.index >= family.TotalChunks()) continue;
    std::uint64_t& word = seen[c.index >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (c.index & 63);
    if (word & bit) continue;
    word |= bit;
    use.push_back(&c);
    if (use.size() == k) break;
  }
  if (use.size() < k) return std::nullopt;
  DecodeSet set;
  set.rows.reserve(k);
  set.srcs.reserve(k);
  for (const IndexedChunk* c : use) {
    if (c->data.size() != chunk_size) {
      throw std::invalid_argument(family.Name() + ": chunk size mismatch");
    }
    set.rows.push_back(c->index);
    set.srcs.push_back(c->data.data());
  }
  return set;
}

// ---------------------------------------------------------------------------
// Replication: every chunk is a full copy.
// ---------------------------------------------------------------------------

class ReplicationFamily final : public CodecFamily {
 public:
  using CodecFamily::CodecFamily;

  std::uint32_t FaultTolerance() const override { return spec_.r; }

  std::vector<ChunkData> Encode(
      std::span<const std::uint8_t> block) const override {
    std::vector<ChunkData> chunks(TotalChunks());
    for (ChunkData& c : chunks) c.assign(block.begin(), block.end());
    return chunks;
  }

  std::optional<std::vector<std::uint8_t>> TryDecode(
      std::span<const IndexedChunk> chunks,
      std::size_t block_size) const override {
    for (const IndexedChunk& c : chunks) {
      if (c.index >= TotalChunks()) continue;
      if (c.data.size() != block_size) {
        throw std::invalid_argument("rep: chunk size mismatch");
      }
      return std::vector<std::uint8_t>(c.data.begin(), c.data.end());
    }
    return std::nullopt;
  }

  std::optional<RepairPlan> PlanRepair(
      ChunkIndex target, std::span<const ChunkIndex> available) const override {
    if (target >= TotalChunks()) return std::nullopt;
    ChunkIndex best = TotalChunks();
    for (const ChunkIndex c : available) {
      if (c >= TotalChunks() || c == target) continue;
      best = std::min(best, c);
    }
    if (best == TotalChunks()) return std::nullopt;
    return RepairPlan{{{best, 1}}, 1};
  }

  std::optional<ChunkData> RepairChunk(ChunkIndex target,
                                       std::span<const IndexedChunk> sources,
                                       std::size_t block_size) const override {
    if (target >= TotalChunks()) return std::nullopt;
    for (const IndexedChunk& c : sources) {
      if (c.index >= TotalChunks() || c.index == target) continue;
      if (c.data.size() != block_size) continue;
      return c.data;
    }
    return std::nullopt;
  }
};

// ---------------------------------------------------------------------------
// Families whose chunks are the rows of one systematic code.
// ---------------------------------------------------------------------------

class LinearFamily : public CodecFamily {
 public:
  LinearFamily(const CodecSpec& spec, gf::Matrix generator)
      : CodecFamily(spec), code_(std::move(generator)) {}

  std::vector<ChunkData> Encode(
      std::span<const std::uint8_t> block) const override {
    return code_.Encode(block, ChunkSize(block.size()));
  }

  std::optional<std::vector<std::uint8_t>> TryDecode(
      std::span<const IndexedChunk> chunks,
      std::size_t block_size) const override {
    const std::size_t chunk_size = ChunkSize(block_size);
    const auto set = Select(chunks, chunk_size);
    if (!set) return std::nullopt;
    std::vector<std::uint8_t> block(block_size);
    code_.Decode(*set, chunk_size, block);
    return block;
  }

 protected:
  /// The k chunks a decode of `chunks` consumes; nullopt when they do
  /// not span the data.
  virtual std::optional<DecodeSet> Select(std::span<const IndexedChunk> chunks,
                                          std::size_t chunk_size) const = 0;

  /// Decodes the data, then re-encodes only the target row.
  std::optional<ChunkData> Reencode(ChunkIndex target,
                                    std::span<const IndexedChunk> sources,
                                    std::size_t block_size) const {
    if (target >= TotalChunks()) return std::nullopt;
    const std::size_t chunk_size = ChunkSize(block_size);
    const auto set = Select(sources, chunk_size);
    if (!set) return std::nullopt;
    std::vector<std::uint8_t> data(DataChunks() * chunk_size);
    code_.Decode(*set, chunk_size, data);
    ChunkData out(chunk_size);
    code_.EncodeRow(target, data.data(), chunk_size, out.data());
    return out;
  }

  SystematicCode code_;
};

// ---------------------------------------------------------------------------
// Reed-Solomon: the MDS workhorse, a systematic Cauchy code.
// ---------------------------------------------------------------------------

class RsFamily final : public LinearFamily {
 public:
  explicit RsFamily(const CodecSpec& spec)
      : LinearFamily(spec, gf::BuildSystematicCauchy(spec.k, spec.r)) {}

  std::uint32_t FaultTolerance() const override { return spec_.r; }

  std::optional<RepairPlan> PlanRepair(
      ChunkIndex target, std::span<const ChunkIndex> available) const override {
    if (target >= TotalChunks()) return std::nullopt;
    std::vector<bool> have(TotalChunks(), false);
    for (const ChunkIndex c : available) {
      if (c < TotalChunks() && c != target) have[c] = true;
    }
    RepairPlan plan;
    plan.reads.reserve(DataChunks());
    // Ascending index prefers systematic chunks, keeping the rebuild a
    // near-reassembly when the data survives.
    for (ChunkIndex c = 0; c < TotalChunks(); ++c) {
      if (!have[c]) continue;
      plan.reads.push_back({c, 1});
      if (plan.reads.size() == DataChunks()) return plan;
    }
    return std::nullopt;
  }

  std::optional<ChunkData> RepairChunk(ChunkIndex target,
                                       std::span<const IndexedChunk> sources,
                                       std::size_t block_size) const override {
    return Reencode(target, sources, block_size);
  }

 private:
  std::optional<DecodeSet> Select(std::span<const IndexedChunk> chunks,
                                  std::size_t chunk_size) const override {
    return FirstKDistinct(*this, chunks, chunk_size);
  }
};

// ---------------------------------------------------------------------------
// Azure-LRC(k, l, g): local XOR parities make single-chunk repair read a
// group instead of k chunks; decodability is pattern-dependent.
// ---------------------------------------------------------------------------

/// Identity, then one XOR row per local group, then the Cauchy(k, g)
/// parity rows: the punctured {data + globals} code is RS(k, g).
gf::Matrix LrcGenerator(const CodecSpec& spec) {
  const gf::Matrix cauchy = gf::BuildSystematicCauchy(spec.k, spec.r);
  gf::Matrix m(SpecTotalChunks(spec), spec.k);
  for (std::uint32_t i = 0; i < spec.k; ++i) m.At(i, i) = 1;
  for (std::uint32_t c = spec.k; c < spec.k + spec.l; ++c) {
    for (std::uint32_t j = 0; j < spec.k; ++j) {
      if (PlacementGroupOf(spec, j) == PlacementGroupOf(spec, c)) {
        m.At(c, j) = 1;
      }
    }
  }
  for (std::uint32_t t = 0; t < spec.r; ++t) {
    for (std::uint32_t j = 0; j < spec.k; ++j) {
      m.At(spec.k + spec.l + t, j) = cauchy.At(spec.k + t, j);
    }
  }
  return m;
}

class AzureLrcFamily final : public LinearFamily {
 public:
  explicit AzureLrcFamily(const CodecSpec& spec)
      : LinearFamily(spec, LrcGenerator(spec)) {
    fault_tolerance_ = ComputeFaultTolerance();
  }

  std::uint32_t FaultTolerance() const override { return fault_tolerance_; }

  bool CanDecode(std::span<const ChunkIndex> indices) const override {
    return SolveFor(indices).has_value();
  }

  std::optional<RepairPlan> PlanRepair(
      ChunkIndex target, std::span<const ChunkIndex> available) const override {
    if (target >= TotalChunks()) return std::nullopt;
    std::vector<bool> have(TotalChunks(), false);
    for (const ChunkIndex c : available) {
      if (c < TotalChunks() && c != target) have[c] = true;
    }
    // Cheap path: the rest of the target's local group survives.
    if (const auto group = PlacementGroupOf(spec_, target)) {
      RepairPlan plan;
      bool covered = true;
      for (ChunkIndex c = 0; c < TotalChunks() && covered; ++c) {
        if (c == target || PlacementGroupOf(spec_, c) != group) continue;
        covered = have[c];
        plan.reads.push_back({c, 1});
      }
      if (covered) return plan;
    }
    // Fallback: whatever spanning k-subset a full decode would consume.
    std::vector<ChunkIndex> avail;
    avail.reserve(TotalChunks());
    for (ChunkIndex c = 0; c < TotalChunks(); ++c) {
      if (have[c]) avail.push_back(c);
    }
    const auto used = SolveFor(avail);
    if (!used) return std::nullopt;
    RepairPlan plan;
    plan.reads.reserve(used->size());
    for (const std::size_t pos : *used) plan.reads.push_back({avail[pos], 1});
    return plan;
  }

  std::optional<ChunkData> RepairChunk(ChunkIndex target,
                                       std::span<const IndexedChunk> sources,
                                       std::size_t block_size) const override {
    if (target >= TotalChunks()) return std::nullopt;
    // A local parity is the XOR of its group: the target equals the XOR
    // of every other chunk of {group members, parity}.
    if (const auto group = PlacementGroupOf(spec_, target)) {
      const std::size_t chunk_size = ChunkSize(block_size);
      std::vector<bool> seen(TotalChunks(), false);
      ChunkData out(chunk_size, 0);
      std::uint32_t provided = 0, needed = 0;
      for (ChunkIndex c = 0; c < TotalChunks(); ++c) {
        if (c != target && PlacementGroupOf(spec_, c) == group) ++needed;
      }
      bool sizes_ok = true;
      for (const IndexedChunk& c : sources) {
        if (c.index >= TotalChunks() || c.index == target || seen[c.index] ||
            PlacementGroupOf(spec_, c.index) != group) {
          continue;
        }
        if (c.data.size() != chunk_size) {
          sizes_ok = false;
          break;
        }
        seen[c.index] = true;
        gf::AddRegion(c.data, out);
        ++provided;
      }
      if (sizes_ok && provided == needed) return out;
    }
    return Reencode(target, sources, block_size);
  }

 private:
  std::optional<DecodeSet> Select(std::span<const IndexedChunk> chunks,
                                  std::size_t chunk_size) const override {
    std::vector<ChunkIndex> indices;
    indices.reserve(chunks.size());
    for (const IndexedChunk& c : chunks) {
      if (c.data.size() != chunk_size) {
        throw std::invalid_argument(Name() + ": chunk size mismatch");
      }
      indices.push_back(c.index);
    }
    const auto used = SolveFor(indices);
    if (!used) return std::nullopt;
    DecodeSet set;
    set.rows.reserve(used->size());
    set.srcs.reserve(used->size());
    for (const std::size_t pos : *used) {
      set.rows.push_back(chunks[pos].index);
      set.srcs.push_back(chunks[pos].data.data());
    }
    return set;
  }

  /// The positions (into `rows`) of k generator rows that span the data,
  /// chosen greedily in the given order; nullopt when the rows do not
  /// span it. Out-of-range and dependent (e.g. repeated) rows are skipped.
  std::optional<std::vector<std::size_t>> SolveFor(
      std::span<const ChunkIndex> rows) const {
    const gf::Matrix& generator = code_.generator();
    const std::size_t k = DataChunks();
    std::vector<std::size_t> used;
    std::vector<std::vector<gf::Elem>> basis;  // reduced rows
    std::vector<std::size_t> pivot_col;        // pivot column per basis row

    for (std::size_t pos = 0; pos < rows.size() && used.size() < k; ++pos) {
      const ChunkIndex r = rows[pos];
      if (r >= TotalChunks()) continue;
      // Reduce the candidate row against the current basis.
      std::vector<gf::Elem> row(k);
      for (std::size_t j = 0; j < k; ++j) row[j] = generator.At(r, j);
      for (std::size_t b = 0; b < basis.size(); ++b) {
        const gf::Elem factor = row[pivot_col[b]];
        if (factor == 0) continue;
        for (std::size_t j = 0; j < k; ++j) {
          row[j] = gf::Add(row[j], gf::Mul(factor, basis[b][j]));
        }
      }
      // Find a pivot.
      std::size_t col = k;
      for (std::size_t j = 0; j < k; ++j) {
        if (row[j] != 0) {
          col = j;
          break;
        }
      }
      if (col == k) continue;  // Dependent row.
      // Normalize so the pivot is 1, then keep the basis in reduced
      // (Gauss-Jordan) form: every other basis row gets a zero in this
      // pivot column, so sequential elimination of future candidates is
      // exact.
      const gf::Elem inv = gf::Inverse(row[col]);
      for (std::size_t j = 0; j < k; ++j) row[j] = gf::Mul(row[j], inv);
      for (std::size_t b = 0; b < basis.size(); ++b) {
        const gf::Elem factor = basis[b][col];
        if (factor == 0) continue;
        for (std::size_t j = 0; j < k; ++j) {
          basis[b][j] = gf::Add(basis[b][j], gf::Mul(factor, row[j]));
        }
      }
      basis.push_back(std::move(row));
      pivot_col.push_back(col);
      used.push_back(pos);
    }
    if (used.size() < k) return std::nullopt;
    return used;
  }

  /// Worst-case tolerated erasures, found by exhaustively erasing every
  /// t-subset until some pattern stops decoding. LRC is small (k+l+g is
  /// tens of chunks), so this stays cheap; absurd specs fall back to the
  /// guaranteed g.
  std::uint32_t ComputeFaultTolerance() const {
    const std::uint32_t n = TotalChunks();
    const std::uint32_t max_t = n - DataChunks();  // l + g
    double combos = 0, c = 1;
    for (std::uint32_t t = 1; t <= max_t; ++t) {
      c = c * (n - t + 1) / t;
      combos += c;
    }
    if (combos > 2e5) return spec_.r;

    std::vector<bool> gone(n, false);
    std::vector<ChunkIndex> survivors;
    const auto decodable_without = [&](const std::vector<std::uint32_t>& erased) {
      std::fill(gone.begin(), gone.end(), false);
      for (const std::uint32_t e : erased) gone[e] = true;
      survivors.clear();
      for (std::uint32_t i = 0; i < n; ++i) {
        if (!gone[i]) survivors.push_back(i);
      }
      return CanDecode(survivors);
    };

    for (std::uint32_t t = 1; t <= max_t; ++t) {
      std::vector<std::uint32_t> pick(t);
      std::iota(pick.begin(), pick.end(), 0u);
      while (true) {
        if (!decodable_without(pick)) return t - 1;
        int i = static_cast<int>(t) - 1;
        while (i >= 0 && pick[i] == n - t + i) --i;
        if (i < 0) break;
        ++pick[i];
        for (std::size_t j = i + 1; j < t; ++j) pick[j] = pick[j - 1] + 1;
      }
    }
    return max_t;
  }

  std::uint32_t fault_tolerance_ = 0;
};

// ---------------------------------------------------------------------------
// Piggybacked RS(k, r), sub-packetization 2 (Rashmi et al.'s piggyback
// framework): two RS substripes A and B share the stripe; each piggy
// parity's B-half additionally absorbs the XOR of the A-subchunks of its
// placement group's data chunks (codec_spec.h owns that layout). MDS on
// whole chunks; a lost data chunk repairs from k-1 B-halves + the clean
// parity's B-half + its group's A-halves + its piggy parity's B-half —
// (k + group) half-chunks instead of 2k.
// ---------------------------------------------------------------------------

class PiggybackRsFamily final : public CodecFamily {
 public:
  explicit PiggybackRsFamily(const CodecSpec& spec)
      : CodecFamily(spec),
        k_(spec.k),
        code_(gf::BuildSystematicCauchy(spec.k, spec.r)) {
    for (ChunkIndex c = k_; c < TotalChunks(); ++c) {
      const auto group = PlacementGroupOf(spec, c);
      if (!group) continue;  // The clean parity.
      if (piggy_parity_.size() <= *group) piggy_parity_.resize(*group + 1);
      piggy_parity_[*group] = c;
    }
  }

  std::uint32_t FaultTolerance() const override { return spec_.r; }

  std::vector<ChunkData> Encode(
      std::span<const std::uint8_t> block) const override {
    const std::size_t sub = ChunkSize(block.size()) / 2;
    // Substripe A carries block bytes [0, k*sub), B the rest (padded).
    const std::size_t split = std::min<std::size_t>(k_ * sub, block.size());
    std::vector<ChunkData> ea = code_.Encode(block.first(split), sub);
    std::vector<ChunkData> eb = code_.Encode(block.subspan(split), sub);
    // Piggybacks: ea[d] is exactly data chunk d's A-half (systematic rows).
    for (ChunkIndex d = 0; d < k_; ++d) {
      gf::AddRegion(ea[d], eb[PiggyParityOf(d)]);
    }
    for (std::uint32_t c = 0; c < TotalChunks(); ++c) {
      ea[c].insert(ea[c].end(), eb[c].begin(), eb[c].end());
    }
    return ea;
  }

  std::optional<std::vector<std::uint8_t>> TryDecode(
      std::span<const IndexedChunk> chunks,
      std::size_t block_size) const override {
    const std::size_t cs = ChunkSize(block_size);
    const std::size_t sub = cs / 2;
    const std::size_t half_block = k_ * sub;
    auto set = FirstKDistinct(*this, chunks, cs);
    if (!set) return std::nullopt;

    // The padded block is substripe A followed by substripe B. A decodes
    // straight from the A-halves.
    std::vector<std::uint8_t> data(2 * half_block);
    const std::span<std::uint8_t> a(data.data(), half_block);
    code_.Decode(*set, sub, a);

    // Substripe B: peel each selected piggy parity's piggyback (now
    // computable from the decoded A-subchunks) before decoding.
    std::vector<ChunkData> peeled;
    peeled.reserve(k_);
    for (std::uint32_t i = 0; i < k_; ++i) {
      set->srcs[i] += sub;
      const auto group = PlacementGroupOf(spec_, set->rows[i]);
      if (set->rows[i] < k_ || !group) continue;  // No piggyback.
      ChunkData& b = peeled.emplace_back(set->srcs[i], set->srcs[i] + sub);
      for (ChunkIndex d = 0; d < k_; ++d) {
        if (PlacementGroupOf(spec_, d) != group) continue;
        gf::AddRegion(a.subspan(d * sub, sub), b);
      }
      set->srcs[i] = b.data();
    }
    code_.Decode(*set, sub, std::span<std::uint8_t>(data).subspan(half_block));
    data.resize(block_size);
    return data;
  }

  std::optional<RepairPlan> PlanRepair(
      ChunkIndex target, std::span<const ChunkIndex> available) const override {
    if (target >= TotalChunks()) return std::nullopt;
    std::vector<bool> have(TotalChunks(), false);
    for (const ChunkIndex c : available) {
      if (c < TotalChunks() && c != target) have[c] = true;
    }
    if (target < k_) {
      const auto group = PlacementGroupOf(spec_, target);
      const ChunkIndex piggy = PiggyParityOf(target);
      bool cheap = have[k_] && have[piggy];
      for (std::uint32_t d = 0; d < k_ && cheap; ++d) {
        if (d != target && !have[d]) cheap = false;
      }
      if (cheap) {
        RepairPlan plan;
        plan.chunk_subchunks = 2;
        plan.reads.reserve(k_ + 1);
        for (std::uint32_t d = 0; d < k_; ++d) {
          if (d == target) continue;
          // Group-mates contribute both halves (their A-half feeds the
          // piggyback peel, their B-half the substripe-B decode); the
          // rest only their B-half.
          const bool mate = PlacementGroupOf(spec_, d) == group;
          plan.reads.push_back({d, mate ? 2u : 1u});
        }
        plan.reads.push_back({k_, 1});
        plan.reads.push_back({piggy, 1});
        return plan;
      }
    }
    // Parity repair, or a missing cheap source: whole-chunk MDS rebuild.
    RepairPlan plan;
    plan.chunk_subchunks = 2;
    plan.reads.reserve(k_);
    for (ChunkIndex c = 0; c < TotalChunks(); ++c) {
      if (!have[c]) continue;
      plan.reads.push_back({c, 2});
      if (plan.reads.size() == k_) return plan;
    }
    return std::nullopt;
  }

  std::optional<ChunkData> RepairChunk(ChunkIndex target,
                                       std::span<const IndexedChunk> sources,
                                       std::size_t block_size) const override {
    if (target >= TotalChunks()) return std::nullopt;
    const std::size_t cs = ChunkSize(block_size);
    const std::size_t sub = cs / 2;

    std::vector<const IndexedChunk*> by_index(TotalChunks(), nullptr);
    for (const IndexedChunk& c : sources) {
      if (c.index >= TotalChunks() || c.index == target) continue;
      if (c.data.size() != cs) continue;
      if (!by_index[c.index]) by_index[c.index] = &c;
    }
    if (target >= k_) return DecodeAndReencode(target, sources, block_size);
    const auto group = PlacementGroupOf(spec_, target);
    const ChunkIndex piggy = PiggyParityOf(target);
    bool cheap = by_index[k_] && by_index[piggy];
    for (std::uint32_t d = 0; d < k_ && cheap; ++d) {
      if (d != target && !by_index[d]) cheap = false;
    }
    if (!cheap) return DecodeAndReencode(target, sources, block_size);

    // Substripe B decodes from k clean B-symbols: the other data chunks'
    // B-halves plus the un-piggybacked parity k's B-half.
    DecodeSet set;
    for (ChunkIndex c = 0; c <= k_; ++c) {
      if (c == target) continue;
      set.rows.push_back(c);
      set.srcs.push_back(by_index[c]->data.data() + sub);
    }
    std::vector<std::uint8_t> b(k_ * sub);
    code_.Decode(set, sub, b);

    ChunkData out(cs);
    std::memcpy(out.data() + sub, b.data() + target * sub, sub);
    // The piggy parity's stored B-half is P^b + piggyback; re-encode P^b
    // from the decoded substripe, add the stored half, then peel the
    // group-mates' A-halves to leave the target's A-half.
    const std::span<std::uint8_t> a_target(out.data(), sub);
    code_.EncodeRow(piggy, b.data(), sub, a_target.data());
    gf::AddRegion(
        std::span<const std::uint8_t>(by_index[piggy]->data.data() + sub, sub),
        a_target);
    for (ChunkIndex d = 0; d < k_; ++d) {
      if (d == target || PlacementGroupOf(spec_, d) != group) continue;
      gf::AddRegion(
          std::span<const std::uint8_t>(by_index[d]->data.data(), sub),
          a_target);
    }
    return out;
  }

 private:
  /// The parity whose B-half carries data chunk `data`'s piggyback.
  ChunkIndex PiggyParityOf(ChunkIndex data) const {
    return piggy_parity_[*PlacementGroupOf(spec_, data)];
  }

  /// Parity repair needs the piggybacks too: decode, re-encode target.
  std::optional<ChunkData> DecodeAndReencode(
      ChunkIndex target, std::span<const IndexedChunk> sources,
      std::size_t block_size) const {
    const auto block = TryDecode(sources, block_size);
    if (!block) return std::nullopt;
    auto chunks = Encode(*block);
    return std::move(chunks[target]);
  }

  std::uint32_t k_;
  SystematicCode code_;
  std::vector<ChunkIndex> piggy_parity_;  // Indexed by placement group.
};

std::unique_ptr<CodecFamily> MakeCodecFamily(const CodecSpec& spec) {
  ValidateCodecSpec(spec);
  switch (spec.family) {
    case CodecFamilyId::kReplication:
      return std::make_unique<ReplicationFamily>(spec);
    case CodecFamilyId::kRs:
      return std::make_unique<RsFamily>(spec);
    case CodecFamilyId::kAzureLrc:
      return std::make_unique<AzureLrcFamily>(spec);
    case CodecFamilyId::kPiggybackRs:
      return std::make_unique<PiggybackRsFamily>(spec);
  }
  throw std::invalid_argument("MakeCodecFamily: unknown family");
}

}  // namespace

std::shared_ptr<const CodecFamily> GetCodecFamily(const CodecSpec& spec) {
  static std::mutex mu;
  static std::map<std::uint64_t, std::shared_ptr<const CodecFamily>> cache;
  const std::uint64_t key = static_cast<std::uint64_t>(spec.family) |
                            (static_cast<std::uint64_t>(spec.k) << 8) |
                            (static_cast<std::uint64_t>(spec.r) << 24) |
                            (static_cast<std::uint64_t>(spec.l) << 40);
  {
    std::lock_guard<std::mutex> lock(mu);
    const auto it = cache.find(key);
    if (it != cache.end()) return it->second;
  }
  // Build outside the lock (the LRC constructor enumerates erasure
  // patterns); first insertion wins on a race.
  std::shared_ptr<const CodecFamily> fam = MakeCodecFamily(spec);
  std::lock_guard<std::mutex> lock(mu);
  return cache.try_emplace(key, std::move(fam)).first->second;
}

}  // namespace ecstore
