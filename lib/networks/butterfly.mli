(** The (log n)-dimensional butterfly [B_n] without wraparound (Section 1.1).

    [B_n] has [N = n(log n + 1)] nodes arranged in [log n + 1] levels of [n]
    nodes each. A node is identified by its column [w ∈ {0,1}^(log n)] and
    level [i ∈ 0..log n]. Nodes [⟨w,i⟩] and [⟨w',i+1⟩] are adjacent iff
    [w = w'] (a {e straight} edge) or [w] and [w'] differ exactly in bit
    position [i+1] (a {e cross} edge), bit positions numbered 1..log n from
    the most significant bit.

    The node index of [⟨w,i⟩] in the underlying graph is [i·n + w]. *)

type t

(** [create ~log_n] is the (log_n)-dimensional butterfly, [log_n >= 0].
    [create ~log_n:0] is the single-node degenerate butterfly. *)
val create : log_n:int -> t

(** [log2_exact n] is [Some l] when [n = 2^l] (so [n >= 1]), else [None]. *)
val log2_exact : int -> int option

(** [of_inputs n] is [create ~log_n:(log2 n)].
    @raise Invalid_argument when [n] is not a power of two. *)
val of_inputs : int -> t

val log_n : t -> int

(** Number of inputs [n = 2^log_n] (columns per level). *)
val n : t -> int

(** Total node count [N = n(log n + 1)]. *)
val size : t -> int

(** Number of levels, [log n + 1]. *)
val levels : t -> int

val graph : t -> Bfly_graph.Graph.t

(** [node t ~col ~level] is the graph index of [⟨col, level⟩]. *)
val node : t -> col:int -> level:int -> int

val col_of : t -> int -> int
val level_of : t -> int -> int

(** [cross_mask t i] is the column-bit mask flipped by cross edges between
    levels [i] and [i+1]: bit position [i+1], i.e. [1 lsl (log_n - i - 1)]. *)
val cross_mask : t -> int -> int

(** All node indices on level [i], in column order. *)
val level_nodes : t -> int -> int list

(** All node indices in column [w], in level order. *)
val column_nodes : t -> int -> int list

(** Inputs = level 0; outputs = level log n. *)
val inputs : t -> int list

val outputs : t -> int list

(** [monotone_path t ~input_col ~output_col] is the unique monotonic path
    from [⟨input_col, 0⟩] to [⟨output_col, log n⟩] (Lemma 2.3), as node
    indices level by level. *)
val monotone_path : t -> input_col:int -> output_col:int -> int list

(** [component_class t ~lo ~hi w] identifies the connected component of
    [B_n[lo,hi]] (the subgraph induced by levels lo..hi) containing column
    [w]: components are classes of columns agreeing outside the bit window
    flipped by levels lo+1..hi (Lemma 2.4). Classes are densely numbered in
    [0, n / 2^(hi-lo)). *)
val component_class : t -> lo:int -> hi:int -> int -> int

(** Number of connected components of [B_n[lo,hi]]: [n / 2^(hi-lo)]. *)
val component_count : t -> lo:int -> hi:int -> int

(** Node indices of one component of [B_n[lo,hi]], given its class id. *)
val component_nodes : t -> lo:int -> hi:int -> int -> int list

(** The level-reversing automorphism of Lemma 2.1:
    [⟨w, i⟩ ↦ ⟨bit-reverse w, log n − i⟩]. *)
val reversal_automorphism : t -> Bfly_graph.Perm.t

(** The level-preserving automorphism of Lemma 2.2 translating column [w]
    to [w xor c]: [⟨w, i⟩ ↦ ⟨w xor c, i⟩]. *)
val column_xor_automorphism : t -> int -> Bfly_graph.Perm.t

(** Theoretical diameter [2 log n] (Section 1.1), for [log_n >= 1]. *)
val theoretical_diameter : t -> int

(** [sub_butterfly_nodes t ~top_level ~dim ~col] is the set of nodes of the
    [dim]-dimensional sub-butterfly spanning levels
    [top_level .. top_level+dim] whose columns agree with [col] outside the
    bit window flipped by those levels. Used for expansion witness sets
    (Section 4.2). *)
val sub_butterfly_nodes : t -> top_level:int -> dim:int -> col:int -> int list

(** Label for rendering: ["<w,i>"] with [w] in binary. *)
val label : t -> int -> string
