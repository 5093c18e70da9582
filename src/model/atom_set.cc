#include "model/atom_set.h"

#include <algorithm>
#include <unordered_set>

#include "util/status.h"

namespace twchase {

AtomSet::AtomSet(const AtomSet& other)
    : slots_(other.slots_),
      alive_(other.alive_),
      index_(other.index_),
      live_per_predicate_(other.live_per_predicate_),
      term_postings_(other.term_postings_),
      live_by_term_(other.live_by_term_),
      dict_(other.dict_),
      live_count_(other.live_count_),
      dead_count_(other.dead_count_),
      generation_(other.generation_),
      compactions_(other.compactions_),
      slot_args_(other.slot_args_),
      journal_enabled_(other.journal_enabled_),
      journal_(other.journal_) {
  segments_.reserve(other.segments_.size());
  for (const auto& [pred, segment] : other.segments_) {
    segments_.emplace(pred, std::make_unique<ColumnSegment>(*segment));
  }
}

AtomSet& AtomSet::operator=(const AtomSet& other) {
  if (this != &other) *this = AtomSet(other);
  return *this;
}

// Indexes a freshly stored atom at `slot`: predicate counter, per-term
// postings/counters (dictionary-id keyed) and the predicate's column
// segment. Shared by Insert and the compaction rebuild.
void AtomSet::IndexNewAtom(const Atom& atom, Slot slot) {
  ++live_per_predicate_[atom.predicate()];
  for (Term t : atom.DistinctTerms()) {
    TermId id = dict_.Intern(t);
    if (id >= term_postings_.size()) {
      term_postings_.resize(id + 1);
      live_by_term_.resize(id + 1, 0);
    }
    term_postings_[id].push_back(slot);
    ++live_by_term_[id];
  }
  const uint32_t arity = static_cast<uint32_t>(atom.args().size());
  auto [it, created] = segments_.try_emplace(atom.predicate(), nullptr);
  if (created) it->second = std::make_unique<ColumnSegment>(arity);
  // Vocabulary rejects an arity clash at parse time and in MustPredicate;
  // an Atom built around it would otherwise store a ragged row.
  TWCHASE_CHECK_MSG(it->second->arity() == arity,
                    "AtomSet: predicate inserted at a second arity");
  scratch_ids_.clear();
  for (Term t : atom.args()) scratch_ids_.push_back(dict_.Intern(t));
  it->second->Append(slot, scratch_ids_.data());
}

bool AtomSet::Insert(const Atom& atom) { return Insert(Atom(atom)); }

bool AtomSet::Insert(Atom&& atom) {
  auto it = index_.find(atom);
  if (it != index_.end()) return false;
  Slot slot = static_cast<Slot>(slots_.size());
  IndexNewAtom(atom, slot);
  index_.emplace(atom, slot);
  if (journal_enabled_) journal_.inserted.push_back(atom);
  slot_args_ += atom.args().size();
  slots_.push_back(std::move(atom));
  alive_.push_back(1);
  ++live_count_;
  ++generation_;
  return true;
}

bool AtomSet::Erase(const Atom& atom) {
  auto it = index_.find(atom);
  if (it == index_.end()) return false;
  Slot slot = it->second;
  TWCHASE_CHECK(alive_[slot]);
  alive_[slot] = 0;
  --live_per_predicate_[atom.predicate()];
  for (Term t : slots_[slot].DistinctTerms()) {
    --live_by_term_[dict_.Find(t)];
  }
  index_.erase(it);
  if (journal_enabled_) journal_.erased.push_back(slots_[slot]);
  --live_count_;
  ++dead_count_;
  ++generation_;
  MaybeCompact();
  return true;
}

AtomSet::Delta AtomSet::DrainDelta() {
  Delta out = std::move(journal_);
  journal_ = Delta{};
  return out;
}

void AtomSet::NoteExternalInsert(const Atom& atom) {
  if (journal_enabled_) journal_.inserted.push_back(atom);
}

void AtomSet::NoteExternalErase(const Atom& atom) {
  if (journal_enabled_) journal_.erased.push_back(atom);
}

bool AtomSet::Contains(const Atom& atom) const { return index_.contains(atom); }

std::vector<Atom> AtomSet::Atoms() const {
  std::vector<Atom> out;
  out.reserve(live_count_);
  for (Slot s = 0; s < slots_.size(); ++s) {
    if (alive_[s]) out.push_back(slots_[s]);
  }
  return out;
}

std::vector<const Atom*> AtomSet::ByPredicate(PredicateId predicate) const {
  std::vector<const Atom*> out;
  const ColumnSegment* segment = SegmentFor(predicate);
  if (segment == nullptr) return out;
  out.reserve(segment->rows());
  for (size_t row = 0; row < segment->rows(); ++row) {
    Slot s = segment->slot(row);
    if (alive_[s]) out.push_back(&slots_[s]);
  }
  return out;
}

std::vector<const Atom*> AtomSet::ByTerm(Term term) const {
  std::vector<const Atom*> out;
  const std::vector<Slot>* posting = TermPostingSlots(term);
  if (posting == nullptr) return out;
  out.reserve(posting->size());
  for (Slot s : *posting) {
    if (alive_[s]) out.push_back(&slots_[s]);
  }
  return out;
}

size_t AtomSet::CountByPredicate(PredicateId predicate) const {
  auto it = live_per_predicate_.find(predicate);
  return it == live_per_predicate_.end() ? 0 : it->second;
}

size_t AtomSet::CountByTerm(Term term) const {
  TermId id = dict_.Find(term);
  return id == TermDictionary::kNoId ? 0 : live_by_term_[id];
}

const ColumnSegment* AtomSet::SegmentFor(PredicateId predicate) const {
  auto it = segments_.find(predicate);
  return it == segments_.end() ? nullptr : it->second.get();
}

const std::vector<AtomSet::Slot>* AtomSet::TermPostingSlots(Term term) const {
  TermId id = dict_.Find(term);
  if (id == TermDictionary::kNoId) return nullptr;
  return &term_postings_[id];
}

std::vector<Term> AtomSet::Terms() const {
  std::vector<Term> out;
  std::unordered_set<Term, TermHash> seen;
  for (Slot s = 0; s < slots_.size(); ++s) {
    if (!alive_[s]) continue;
    for (Term t : slots_[s].args()) {
      if (seen.insert(t).second) out.push_back(t);
    }
  }
  return out;
}

std::vector<Term> AtomSet::Variables() const {
  std::vector<Term> out;
  for (Term t : Terms()) {
    if (t.is_variable()) out.push_back(t);
  }
  return out;
}

bool AtomSet::ContainsTerm(Term term) const { return CountByTerm(term) > 0; }

bool operator==(const AtomSet& a, const AtomSet& b) {
  if (a.live_count_ != b.live_count_) return false;
  for (AtomSet::Slot s = 0; s < a.slots_.size(); ++s) {
    if (a.alive_[s] && !b.Contains(a.slots_[s])) return false;
  }
  return true;
}

bool AtomSet::IsSubsetOf(const AtomSet& other) const {
  if (live_count_ > other.live_count_) return false;
  for (Slot s = 0; s < slots_.size(); ++s) {
    if (alive_[s] && !other.Contains(slots_[s])) return false;
  }
  return true;
}

void AtomSet::InsertAll(const AtomSet& other) {
  other.ForEach([this](const Atom& atom) { Insert(atom); });
}

std::string AtomSet::ToString(const Vocabulary& vocab) const {
  std::string out = "{";
  bool first = true;
  for (const Atom& atom : Atoms()) {
    if (!first) out += ", ";
    first = false;
    out += atom.ToString(vocab);
  }
  out += "}";
  return out;
}

AtomSet AtomSet::FromAtoms(const std::vector<Atom>& atoms) {
  AtomSet out;
  for (const Atom& atom : atoms) out.Insert(atom);
  return out;
}

uint64_t AtomSet::ContentHash() const {
  // Commutative combine (sum) of per-atom FNV-1a hashes: insertion order
  // and tombstone layout do not affect the value.
  uint64_t total = 0;
  for (Slot s = 0; s < slots_.size(); ++s) {
    if (!alive_[s]) continue;
    const Atom& atom = slots_[s];
    uint64_t h = 1469598103934665603ull;  // FNV offset basis
    auto mix = [&h](uint64_t value) {
      h ^= value;
      h *= 1099511628211ull;  // FNV prime
    };
    mix(static_cast<uint64_t>(atom.predicate()));
    for (Term t : atom.args()) mix(static_cast<uint64_t>(t.raw()) + 1);
    total += h;
  }
  return total;
}

size_t AtomSet::ApproxMemoryBytes() const {
  // Per slot: the Atom object, its dedup-index entry and the hash-map node
  // overheads; per argument: the stored Term plus its per-term posting and
  // live counter. The constants bake in typical libstdc++ node and vector
  // growth overheads. kPerSlotBytes still carries the share of a per-slot
  // predicate posting the set no longer keeps: changing it would move the
  // step at which every memory-governed run stops. On top of that, the columnar
  // layer is charged explicitly: dictionary tables plus per-segment column
  // data and resident sorted indexes (lazily built, so this estimate grows
  // when the matcher first probes a column — the governor sees what the
  // allocator sees).
  constexpr size_t kPerSlotBytes = 96;
  constexpr size_t kPerArgBytes = 24;
  size_t bytes = slots_.size() * kPerSlotBytes + slot_args_ * kPerArgBytes;
  bytes += dict_.ApproxMemoryBytes();
  for (const auto& [pred, segment] : segments_) {
    (void)pred;
    bytes += segment->ApproxMemoryBytes();
  }
  return bytes;
}

void AtomSet::MaybeCompact() {
  // Compact when at least half the slots are tombstones and the set is not
  // tiny; keeps postings from degenerating in long core-chase runs where the
  // simplification erases most atoms every step.
  if (dead_count_ >= 64 && dead_count_ >= live_count_) CompactPostings();
}

void AtomSet::CompactPostings() {
  std::vector<Atom> new_slots;
  new_slots.reserve(live_count_);
  slot_args_ = 0;
  for (Slot s = 0; s < slots_.size(); ++s) {
    if (alive_[s]) {
      slot_args_ += slots_[s].args().size();
      new_slots.push_back(std::move(slots_[s]));
    }
  }
  slots_ = std::move(new_slots);
  alive_.assign(slots_.size(), 1);
  dead_count_ = 0;
  ++compactions_;
  index_.clear();
  live_per_predicate_.clear();
  for (std::vector<Slot>& posting : term_postings_) posting.clear();
  std::fill(live_by_term_.begin(), live_by_term_.end(), 0);
  // Segments are rebuilt in the new slot order; the dictionary is kept
  // (append-only ids).
  segments_.clear();
  for (Slot s = 0; s < slots_.size(); ++s) {
    const Atom& atom = slots_[s];
    IndexNewAtom(atom, s);
    index_.emplace(atom, s);
  }
}

}  // namespace twchase
