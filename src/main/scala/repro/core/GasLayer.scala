package repro.core

/** Pointwise activation applied at the end of `apply_node`. */
sealed trait Act extends Serializable {
  def apply(x: Array[Double]): Array[Double]
  def name: String
}
object Act {
  case object Id extends Act { def apply(x: Array[Double]): Array[Double] = x; val name = "id" }
  case object Relu extends Act {
    def apply(x: Array[Double]): Array[Double] = x.map(v => if (v > 0) v else 0.0)
    val name = "relu"
  }
  case object Elu extends Act {
    def apply(x: Array[Double]): Array[Double] = x.map(v => if (v > 0) v else math.exp(v) - 1.0)
    val name = "elu"
  }
  def of(name: String): Act = name match {
    case "id" => Id; case "relu" => Relu; case "elu" => Elu
    case other => throw new IllegalArgumentException(s"unknown activation $other")
  }
}

/** Small dense vector helpers shared by the inference layers. */
object VecOps {
  /** Row-vector times matrix: (1×in) · (in×out) → out. */
  def vecMat(h: Array[Double], w: repro.nn.DMat): Array[Double] = {
    require(h.length == w.rows, s"vecMat dim mismatch ${h.length} vs ${w.rows}")
    val out = new Array[Double](w.cols)
    var i = 0
    while (i < h.length) {
      val hi = h(i)
      if (hi != 0.0) {
        val off = i * w.cols
        var j = 0
        while (j < w.cols) { out(j) += hi * w.a(off + j); j += 1 }
      }
      i += 1
    }
    out
  }

  def dot(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  def addInto(acc: Array[Double], x: Array[Double], c: Double = 1.0): Unit = {
    var i = 0
    while (i < acc.length) { acc(i) += c * x(i); i += 1 }
  }

  /** `a` followed by `b`. */
  def concat(a: Array[Double], b: Array[Double]): Array[Double] = {
    val out = new Array[Double](a.length + b.length)
    System.arraycopy(a, 0, out, 0, a.length)
    System.arraycopy(b, 0, out, a.length, b.length)
    out
  }
}

/** Per-layer signature — the paper's annotation mechanism: recorded when a
  * trained model is saved and consulted by the inference backends (e.g. to
  * know whether the combiner may run the aggregate early).
  *
  * `readsDst` says that `apply_edge` reads the receiver's payload as well as
  * the sender's: backends then call `applyEdge(srcPayload ++ dstPayload, w)`.
  */
final case class LayerSig(kind: String, inDim: Int, outDim: Int,
                          partialGather: Boolean, activation: String,
                          heads: Int = 1, combine: String = "concat",
                          readsDst: Boolean = false)

/** One GNN layer in the InferTurbo GAS-like abstraction.
  *
  * The five stages of the paper map onto this trait as follows:
  *  - `gather_nbrs` / `scatter_nbrs` (data flow) are owned by the backends
  *    (GraphX message routing, or DataFrame shuffle) — built-in, as in the
  *    paper;
  *  - `aggregate` (computation flow) is [[initAgg]] + [[Agg.merge]]; when
  *    [[partialGather]] is true it is commutative+associative and backends
  *    may run it sender-side (combiner);
  *  - `apply_node` is [[applyNode]];
  *  - `apply_edge` is [[applyEdge]], fed by [[scatterPayload]] which is the
  *    per-vertex part of the out-message, computed once per vertex (the
  *    hook the broadcast strategy compresses). When [[LayerSig.readsDst]]
  *    is set it is fed the sender's payload followed by the receiver's
  *    (GAT scores each edge against the receiver's attention term, which is
  *    what makes its reduce associative).
  */
trait GasLayer extends Serializable {
  def inDim: Int
  def outDim: Int

  /** Annotation: may the aggregate run as a sender-side combiner? */
  def partialGather: Boolean

  /** The vertex-level content of out-messages (identical across out-edges —
    * this is what the broadcast strategy sends once per machine).
    */
  def scatterPayload(h: Array[Double]): Array[Double]

  /** Edge-wise message from the payload and the edge weight. The payload is
    * `srcPayload ++ dstPayload` when `signature.readsDst`, else `srcPayload`.
    * A `readsDst` layer must not retain its payload argument (nor return it):
    * callers may refill one buffer for every edge.
    */
  def applyEdge(payload: Array[Double], w: Double): Array[Double]

  /** Lift one message into the aggregate state (a mergeable [[Pooled]] or
    * [[SoftmaxPool]] when partial-gatherable, [[Unioned]] otherwise).
    */
  def initAgg(msg: Array[Double], w: Double): Agg

  /** Update the vertex state from its previous state and the gathered
    * aggregate. Must accept a [[Unioned]] list of `applyEdge` messages even
    * for associative layers (that is the partial-gather-disabled path) and
    * [[EmptyAgg]] for isolated nodes.
    */
  def applyNode(h: Array[Double], agg: Agg): Array[Double]

  def signature: LayerSig
}
