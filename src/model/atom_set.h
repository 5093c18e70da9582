// AtomSet: a finite instance — a deduplicated set of atoms with secondary
// indexes used by the homomorphism engine and the chase:
//   * by predicate: each predicate's atoms, one ColumnSegment row per slot;
//   * by term: all atoms mentioning a given term.
// Storage is slot-based with tombstones so rows and postings stay valid
// across erases; they are filtered on read and compacted when the dead
// fraction grows.
//
// Columnar layer: every term is interned into a TermDictionary of dense
// 32-bit ids, per-term postings and live counters are flat vectors indexed
// by those ids, and each predicate's atoms are stored in a ColumnSegment
// (arguments column-wise, with lazily sorted position indexes). A predicate
// has one arity per set; inserting an atom at a second arity is a checked
// failure. The matcher (hom/matcher.cc) probes the segments directly
// through the accessors below; segment rows are in ascending slot order,
// which is what pins its enumeration order. Insertion-order iteration is
// unchanged from the pre-columnar AtomSet.
//
// Delta hooks: a generation counter stamps every successful mutation, and an
// opt-in delta journal records inserted/erased atoms until drained — the
// chase's semi-naive trigger generation consumes it to evaluate rules against
// the change set instead of the whole instance. The journal stores atom
// values, not slots, so tombstone compaction never invalidates it.
#ifndef TWCHASE_MODEL_ATOM_SET_H_
#define TWCHASE_MODEL_ATOM_SET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/atom.h"
#include "model/column_segment.h"
#include "model/term.h"
#include "model/term_dictionary.h"

namespace twchase {

class AtomSet {
 public:
  using Slot = uint32_t;

  AtomSet() = default;

  AtomSet(const AtomSet& other);
  AtomSet& operator=(const AtomSet& other);
  AtomSet(AtomSet&&) = default;
  AtomSet& operator=(AtomSet&&) = default;

  /// Inserts an atom; returns false if it was already present.
  bool Insert(const Atom& atom);
  bool Insert(Atom&& atom);

  /// Removes an atom; returns false if it was absent.
  bool Erase(const Atom& atom);

  bool Contains(const Atom& atom) const;

  size_t size() const { return live_count_; }
  bool empty() const { return live_count_ == 0; }

  /// Snapshot of the live atoms, in insertion order of their slots.
  std::vector<Atom> Atoms() const;

  /// Calls fn(atom) for each live atom. fn must not mutate this set.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (Slot s = 0; s < slots_.size(); ++s) {
      if (alive_[s]) fn(slots_[s]);
    }
  }

  /// Live atoms with the given predicate, in slot order.
  std::vector<const Atom*> ByPredicate(PredicateId predicate) const;

  /// Live atoms mentioning the given term.
  std::vector<const Atom*> ByTerm(Term term) const;

  /// Number of live atoms with the given predicate / mentioning the given
  /// term. O(1): counters are maintained on insert and erase (hot path of
  /// the homomorphism search's candidate selection).
  size_t CountByPredicate(PredicateId predicate) const;
  size_t CountByTerm(Term term) const;

  /// Distinct terms occurring in live atoms.
  std::vector<Term> Terms() const;

  /// Distinct variables occurring in live atoms.
  std::vector<Term> Variables() const;

  bool ContainsTerm(Term term) const;

  /// Set-level equality (same atoms, any insertion order).
  friend bool operator==(const AtomSet& a, const AtomSet& b);

  /// True if every live atom of this set is in `other`.
  bool IsSubsetOf(const AtomSet& other) const;

  /// Union in place: inserts all atoms of `other`.
  void InsertAll(const AtomSet& other);

  std::string ToString(const Vocabulary& vocab) const;

  /// Builds a set from a list (deduplicating).
  static AtomSet FromAtoms(const std::vector<Atom>& atoms);

  /// Mutation stamp: incremented on every successful Insert and Erase (not
  /// on compaction, which preserves contents). Lets incremental consumers
  /// assert they have not missed a change.
  uint64_t generation() const { return generation_; }

  /// Atoms inserted into / erased from the set since the last drain.
  struct Delta {
    std::vector<Atom> inserted;
    std::vector<Atom> erased;
    bool empty() const { return inserted.empty() && erased.empty(); }
  };

  /// Starts journaling mutations. Off by default (zero overhead); enabling
  /// is idempotent and keeps any entries already recorded.
  void EnableDeltaJournal() { journal_enabled_ = true; }
  bool delta_journal_enabled() const { return journal_enabled_; }

  /// Returns and clears the journal. Entries appear in mutation order; an
  /// atom erased and re-inserted appears in both lists.
  Delta DrainDelta();

  /// Appends a journal entry without mutating the set. Used by bulk rebuild
  /// operations (e.g. applying a retraction via a fresh set) that replace
  /// contents wholesale and report the net changes themselves. No-ops when
  /// the journal is disabled.
  void NoteExternalInsert(const Atom& atom);
  void NoteExternalErase(const Atom& atom);

  /// Introspection for compaction tests.
  size_t dead_slots() const { return dead_count_; }
  size_t compactions() const { return compactions_; }

  /// Order-independent content hash of the live atoms: equal sets hash
  /// equal regardless of insertion history, and the value is stable across
  /// processes (plain FNV-1a over term ids, no std::hash). Used by the
  /// checkpoint layer to cross-check a resumed instance.
  uint64_t ContentHash() const;

  /// Rough estimate of resident bytes: slot storage, index entries, the
  /// term dictionary and the columnar segments including any lazily built
  /// column indexes. O(#predicates) per call, so memory-budget polls can
  /// read it per step. An estimate, not an allocator hook: allocator slack
  /// and hash-table load factors are folded into fixed per-slot/per-argument
  /// constants. Tombstoned slots count until compaction reclaims them.
  size_t ApproxMemoryBytes() const;

  // ----- Columnar accessors (hom/matcher.cc join path). ------------------

  /// The dictionary interning every term this set has ever stored.
  const TermDictionary& dictionary() const { return dict_; }

  /// The predicate's column segment, or null when the predicate was never
  /// inserted.
  const ColumnSegment* SegmentFor(PredicateId predicate) const;

  bool SlotAlive(Slot slot) const { return alive_[slot] != 0; }
  const Atom& SlotAtom(Slot slot) const { return slots_[slot]; }

  /// Raw posting list (ascending slots, tombstones included — callers
  /// filter through SlotAlive). Null when the term is unknown. Exposed so
  /// the matcher can find the head of the pinned candidate order without
  /// materialising a filtered vector.
  const std::vector<Slot>* TermPostingSlots(Term term) const;

 private:
  void MaybeCompact();
  void CompactPostings();
  void IndexNewAtom(const Atom& atom, Slot slot);

  std::vector<Atom> slots_;
  std::vector<uint8_t> alive_;
  std::unordered_map<Atom, Slot, AtomHash> index_;
  std::unordered_map<PredicateId, size_t> live_per_predicate_;
  // Term-keyed tables are flat vectors indexed by dictionary id.
  std::vector<std::vector<Slot>> term_postings_;
  std::vector<size_t> live_by_term_;
  TermDictionary dict_;
  std::unordered_map<PredicateId, std::unique_ptr<ColumnSegment>> segments_;
  std::vector<TermId> scratch_ids_;  // Insert's per-row id buffer
  size_t live_count_ = 0;
  size_t dead_count_ = 0;
  uint64_t generation_ = 0;
  size_t compactions_ = 0;
  size_t slot_args_ = 0;  // total argument count over all slots, dead included
  bool journal_enabled_ = false;
  Delta journal_;
};

}  // namespace twchase

#endif  // TWCHASE_MODEL_ATOM_SET_H_
