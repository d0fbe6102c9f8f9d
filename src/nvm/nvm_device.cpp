#include "nvm/nvm_device.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"

namespace steins {

void NvmDevice::check_limit(Addr addr) const {
  if (addr >= limit_) {
    throw std::out_of_range("NVM write beyond device address limit: addr=" +
                            std::to_string(addr) + " limit=" + std::to_string(limit_));
  }
}

Block NvmDevice::read_block(Addr addr) {
  ++stats_.reads;
  stats_.energy_nj += cfg_.read_energy_nj;
  return peek_block(addr);
}

void NvmDevice::write_block(Addr addr, const Block& data) {
  check_limit(addr);
  ++stats_.writes;
  stats_.energy_nj += cfg_.write_energy_nj;
  const Addr line = align(addr);
  Line& ln = store_.get_or_create(line);
  ln.block = data;
  ln.flags |= Line::kBlock;
  if (!ecc_faults_.empty() && (ln.flags & Line::kWorn) == 0) {
    ecc_faults_.erase(line);  // a full-line write lays a fresh codeword
  }
  if (wear_enabled()) apply_wear(line, ln);
}

std::uint64_t NvmDevice::read_tag(Addr addr) const {
  const Line* ln = store_.find(align(addr));
  return ln == nullptr ? 0 : ln->tag;
}

void NvmDevice::write_tag(Addr addr, std::uint64_t tag) {
  check_limit(addr);
  Line& ln = store_.get_or_create(align(addr));
  ln.tag = tag;
  ln.flags |= Line::kTag;
}

std::uint64_t NvmDevice::read_tag2(Addr addr) const {
  const Line* ln = store_.find(align(addr));
  return ln == nullptr ? 0 : ln->tag2;
}

void NvmDevice::write_tag2(Addr addr, std::uint64_t tag) {
  check_limit(addr);
  Line& ln = store_.get_or_create(align(addr));
  ln.tag2 = tag;
  ln.flags |= Line::kTag2;
}

Block NvmDevice::peek_block(Addr addr) const {
  // A line with no block write yet holds zeroes, so no flag check is needed:
  // a plain entry read preserves "untouched blocks read as zero".
  const Line* ln = store_.find(align(addr));
  return ln == nullptr ? zero_block() : ln->block;
}

void NvmDevice::poke_block(Addr addr, const Block& data) {
  check_limit(addr);
  const Addr line = align(addr);
  Line& ln = store_.get_or_create(line);
  ln.block = data;
  ln.flags |= Line::kBlock;
  if (!ecc_faults_.empty() && (ln.flags & Line::kWorn) == 0) {
    ecc_faults_.erase(line);
  }
  // Pokes model bookkeeping/attacker traffic: they do not age the cells,
  // but neither can they heal a worn-out line.
  if ((ln.flags & Line::kWorn) != 0) refault_worn(line, ln);
}

void NvmDevice::inject_ecc_error(Addr addr, unsigned bit, bool correctable,
                                 unsigned retries) {
  check_limit(addr);
  const Addr line = align(addr);
  Block image = peek_block(line);
  auto it = ecc_faults_.find(line);
  if (it == ecc_faults_.end()) {
    EccLineState st;
    st.golden = image;
    st.uncorrectable = !correctable;
    st.retries_needed = correctable ? retries : 0;
    it = ecc_faults_.emplace(line, st).first;
  } else {
    // A second independent fault exceeds the SECDED correction budget.
    it->second.uncorrectable = true;
    it->second.retries_needed = 0;
  }
  image[bit / 8] = static_cast<std::uint8_t>(image[bit / 8] ^ (1u << (bit % 8)));
  Line& ln = store_.get_or_create(line);
  ln.block = image;
  ln.flags |= Line::kBlock;
}

const NvmDevice::EccLineState* NvmDevice::ecc_fault(Addr line) const {
  if (ecc_faults_.empty()) return nullptr;
  const auto it = ecc_faults_.find(line);
  return it == ecc_faults_.end() ? nullptr : &it->second;
}

bool NvmDevice::ecc_uncorrectable(Addr addr) const {
  const EccLineState* fault = ecc_fault(align(addr));
  return fault != nullptr && fault->uncorrectable;
}

NvmDevice::EccRead NvmDevice::read_block_ecc(Addr addr, Block* out) {
  ++stats_.reads;
  stats_.energy_nj += cfg_.read_energy_nj;
  const Addr line = align(addr);
  if (ecc_faults_.empty()) {
    *out = peek_block(line);
    return EccRead::kClean;
  }
  auto it = ecc_faults_.find(line);
  if (it == ecc_faults_.end()) {
    *out = peek_block(line);
    return EccRead::kClean;
  }
  if (it->second.uncorrectable) {
    ++stats_.ecc_uncorrectable_reads;
    *out = peek_block(line);
    return EccRead::kUncorrectable;
  }
  if (it->second.retries_needed > 0) {
    --it->second.retries_needed;
    ++stats_.ecc_retry_reads;
    *out = peek_block(line);
    return EccRead::kNeedsRetry;
  }
  ++stats_.ecc_corrected_reads;
  *out = it->second.golden;
  return EccRead::kCorrected;
}

Block NvmDevice::peek_corrected(Addr addr, bool* uncorrectable) const {
  const Addr line = align(addr);
  const EccLineState* fault = ecc_fault(line);
  if (uncorrectable != nullptr) *uncorrectable = fault != nullptr && fault->uncorrectable;
  if (fault != nullptr && !fault->uncorrectable) return fault->golden;
  return peek_block(line);
}

bool NvmDevice::peek_resident(Addr addr, Block* image, std::uint64_t* tag,
                              bool* uncorrectable) const {
  const Addr line = align(addr);
  const Line* ln = store_.find(line);
  const EccLineState* fault = ecc_fault(line);
  *uncorrectable = fault != nullptr && fault->uncorrectable;
  if (fault != nullptr && !fault->uncorrectable) {
    *image = fault->golden;
  } else {
    *image = ln == nullptr ? zero_block() : ln->block;
  }
  if (tag != nullptr) *tag = ln == nullptr ? 0 : ln->tag;
  return ln != nullptr && (ln->flags & Line::kBlock) != 0;
}

std::uint64_t NvmDevice::wear_limit(Addr addr) const {
  SplitMix64 sm(cfg_.wear_seed ^ (align(addr) * 0x9e3779b97f4a7c15ULL));
  // Irwin-Hall: the sum of four uniforms has mean 2 and variance 1/3; only
  // +/*// on integer-derived doubles, so the draw needs no libm and is
  // bit-identical everywhere.
  double s = 0.0;
  for (int i = 0; i < 4; ++i) {
    s += static_cast<double>(sm.next() >> 11) * (1.0 / 9007199254740992.0);
  }
  const double z = (s - 2.0) * 1.7320508075688772;  // sqrt(3): unit variance
  const double lim = static_cast<double>(cfg_.endurance_mean_writes) +
                     static_cast<double>(cfg_.endurance_sigma_writes) * z;
  return lim < 4.0 ? 4 : static_cast<std::uint64_t>(lim);
}

std::uint32_t NvmDevice::wear_of(Addr addr) const {
  const Line* ln = store_.find(align(addr));
  return ln == nullptr ? 0 : ln->wear;
}

bool NvmDevice::worn_out(Addr addr) const {
  const Line* ln = store_.find(align(addr));
  return ln != nullptr && (ln->flags & Line::kWorn) != 0;
}

std::vector<std::pair<Addr, std::uint32_t>> NvmDevice::wear_profile(Addr lo, Addr hi) const {
  std::vector<std::pair<Addr, std::uint32_t>> out;
  store_.for_each([&](Addr line, const Line& ln) {
    if (ln.wear > 0 && line >= lo && line < hi) out.emplace_back(line, ln.wear);
  });
  std::sort(out.begin(), out.end());
  return out;
}

void NvmDevice::apply_wear(Addr line, Line& ln) {
  if ((ln.flags & Line::kWorn) != 0) {
    refault_worn(line, ln);  // writing to stuck cells re-corrupts the word
    return;
  }
  ++ln.wear;
  const std::uint64_t limit = wear_limit(line);
  if (ln.wear >= limit) {
    ln.flags |= Line::kWorn;
    ++stats_.lines_worn_out;
    refault_worn(line, ln);
    return;
  }
  const auto level_at = static_cast<std::uint64_t>(
      static_cast<double>(limit) * cfg_.wear_level_fraction);
  if (level_at > 0 && ln.wear >= level_at && remap_pool_free_ > 0) {
    // Proactive wear-leveling: migrate the content to a spare from the
    // remap pool; the logical line keeps serving from fresh cells.
    --remap_pool_free_;
    ln.wear = 0;
    ++stats_.lines_wear_leveled;
  }
}

void NvmDevice::refault_worn(Addr line, Line& ln) {
  EccLineState& st = ecc_faults_[line];
  st.uncorrectable = true;
  st.retries_needed = 0;
  // One stuck cell at a position derived from the line address: the fresh
  // codeword is corrupt the moment it lands, and SECDED cannot fix a cell
  // that no longer programs.
  SplitMix64 sm(cfg_.wear_seed ^ line ^ 0x77ea12fc5b23a917ULL);
  const unsigned bit = static_cast<unsigned>(sm.next() % (kBlockSize * 8));
  ln.block[bit / 8] = static_cast<std::uint8_t>(ln.block[bit / 8] ^ (1u << (bit % 8)));
}

bool NvmDevice::remap_line(Addr addr) {
  if (remap_pool_free_ == 0) return false;
  --remap_pool_free_;
  const Addr line = align(addr);
  ecc_faults_.erase(line);
  if (Line* ln = store_.find(line)) {
    // The spare line starts blank: drop the images and presence flags. The
    // record itself stays stored (the store never deletes; remaps are rare).
    *ln = Line{};
  }
  ++stats_.lines_remapped;
  return true;
}

std::vector<Addr> NvmDevice::resident_blocks(Addr lo, Addr hi) const {
  std::vector<Addr> out;
  store_.for_each([&](Addr line, const Line& ln) {
    if ((ln.flags & Line::kBlock) != 0 && line >= lo && line < hi) out.push_back(line);
  });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Addr> NvmDevice::resident_tags(Addr lo, Addr hi) const {
  std::vector<Addr> out;
  store_.for_each([&](Addr line, const Line& ln) {
    if ((ln.flags & Line::kTag) != 0 && line >= lo && line < hi) out.push_back(line);
  });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace steins
