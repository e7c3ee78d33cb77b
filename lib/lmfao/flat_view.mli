(** Flat storage for one directed view of {!Exec}.

    - Rows: dense ids in insertion order, each with its key's int form
      ({!Keypack}) recorded. While keys arrive strictly increasing the
      view is in key order and has no index: a key is found by binary
      search, or walked to by {!seek}. The first key out of that order, or
      the first that does not pack, builds a {!Keypack.Index} of the
      recorded keys.
    - Partials: each row's scalars contiguous in a fixed-size float block
      that never moves. Grouped slots come in families (slots that always
      have the same keys, {!Plan.view}'s [v_families]); each (row, family)
      cell holds one chain of entries. An entry holds one value per member
      of its family, contiguous inside one value block, and is named by
      the offset [e] of its first value: member [m]'s value is at
      [values.(e lsr block_bits)] offset [(e land (block_size - 1)) + m],
      and the entry's key and next entry at [links.(e lsr block_bits)]
      offsets [2 * (e land (block_size - 1))] and [+ 1]. A cell scans its
      chain up to 16 entries and is indexed past that. New entries' values
      start at [-0.0], so a first addition stores its operand bit for bit;
      scalars start at [+0.0].

    The record is exposed so that [Exec]'s programs read blocks in place;
    everything that allocates or grows goes through the functions. *)

open Relational

val block_bits : int
(** Entry values: block [e lsr block_bits], offset [e land (block_size - 1)]. *)

val block_size : int
(** [1 lsl block_bits] = 512: the most floats a scalar block holds (a row
    wider than that gets a block to itself), the floats per value block,
    and the most members a family holds. *)

val pair_bits : int
(** Cells hold two ints each, [1 lsl pair_bits] per block: cell [c]'s head
    and count at [cells.(c lsr pair_bits)] offsets
    [2 * (c land (1 lsl pair_bits - 1))] and [+ 1]. *)

type boxed
(** Entries whose keys do not pack, by (cell, key). *)

type t = private {
  scalars : int;  (** scalar slots per row *)
  families : int;  (** families per row; row r owns cells [r * families + f] *)
  widths : int array;  (** per family: its members, the values per entry *)
  width : int;  (** the width every family has, 0 when they differ *)
  shift : int;
      (** row r's scalars: block [r lsr shift], offset
          [(r land (1 lsl shift - 1)) * scalars] *)
  mutable blocks : float array array;  (** scalar blocks *)
  mutable cells : int array array;  (** per cell: head entry (-1: none), count *)
  mutable links : int array array;
      (** beside each value block: per entry, its key and next entry (-1: none) *)
  mutable values : float array array;  (** per entry: its members' partials *)
  mutable top : int;  (** the next free value offset *)
  mutable index : Keypack.Index.t option;  (** key to row; [None] while in key order *)
  mutable keys : int array;  (** row r's key, or {!Keypack.nopack} *)
  mutable rows : int;
  mutable promoted : int array;  (** [cell; key; entry] triples, entry -1 when free *)
  mutable n_promoted : int;
  boxed : boxed;
}

val create : scalars:int -> widths:int array -> t
(** An empty view whose rows hold [scalars] scalar partials and one cell
    per family, family [f] with [widths.(f)] members.
    @raise Invalid_argument unless every width is in [1, block_size]. *)

(** {1 Rows} *)

val in_order : t -> bool
(** Whether every key so far packed and arrived strictly increasing: the
    view has no index, and [keys] is sorted over its rows. *)

val find : t -> int -> int
(** The row of a packed key, or -1: binary search in an in-order view. *)

val seek : t -> int -> int -> int
(** [seek t from k]: in an in-order view, the first row from [from] whose
    key is at least [k], or [t.rows]; gallops forward from [from], so a
    walk that skips few rows pays little. *)

val ensure_index : t -> unit
(** Build the index of an in-order view (from then on it is not in
    order); nothing for one that has it. Not safe while another domain
    reads the view. *)

val find_boxed : t -> Tuple.t -> int

val row : t -> int -> int
(** The row of a packed key, added (scalars [+0.0], cells empty) when
    new; counts [keypack.packed] on insert. A key below the last of an
    in-order view builds the index. *)

val row_boxed : t -> Tuple.t -> int
(** Likewise for a key that does not pack; counts [keypack.boxed] and
    builds the index. *)

val scalar : t -> int -> int -> float
(** [scalar t r idx]: row [r]'s scalar partial [idx]. *)

(** {1 Grouped entries} *)

val entry : t -> int -> int -> int
(** [entry t cell k]: the entry of packed key [k] in [cell], added with
    its values at [-0.0] when new. *)

val entry_boxed : t -> int -> Tuple.t -> int
(** Likewise for a key that does not pack. *)

val boxed_key : t -> int -> Tuple.t
(** The key of an entry whose key is {!Keypack.nopack}. *)

val cell_bindings : t -> int -> arity:int -> member:int -> (Tuple.t * float) list
(** A cell's (key, value) pairs for one member of its family, unordered,
    keys unpacked at [arity]. *)

val reset : t -> unit
(** Empty the view, in key order again, keeping its storage: its scalar,
    cell and value blocks, key array and entry index serve the rows and
    entries that follow, each block set back to its initial values when
    first reached again. A view reset between runs allocates only past the
    largest size it has had. *)

val merge : t -> t -> unit
(** [merge into src] adds every row of [src] into [into], packed keys in
    [src]'s row order and then boxed ones: per key, sums in place member by
    member, and a key new to [into] (a row, or an entry of a cell) takes
    [src]'s partials as they are. The two views must have the same
    scalars and family widths. Merging an in-order view whose keys start
    at or after [into]'s last keeps [into] in order. *)
