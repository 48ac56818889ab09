package repro.core

import repro.nn.DMat

/** Multi-head GAT convolution in the GAS abstraction (inference form).
  *
  * The out-message payload per head is `[W_h·h, a_src·W_h·h]`. The signature
  * sets `readsDst`, so `apply_edge` also sees the receiver's payload and
  * emits, per head, `[W_h·h_u, ℓ, 1]` with the edge's attention logit
  * `ℓ = lrelu(a_src·W_h·h_u + a_dst·W_h·h_v)`: a one-message state of the
  * online-softmax normaliser [[SoftmaxPool]]. With the logit fixed at the
  * edge, the attention-weighted sum is that exact mergeable monoid, so the
  * signature carries `partialGather = true` and backends may combine GAT
  * messages sender-side. This goes beyond the paper, whose Fig. 3 GATConv
  * is `@Gather(partial=False)` and reduces a union of messages in
  * `apply_node`.
  *
  * `apply_node` merges in a self-message (the standard GAT self-loop) and
  * divides each head's weighted sum by its normaliser.
  */
final case class GatLayer(w: Array[DMat], aSrc: Array[Array[Double]], aDst: Array[Array[Double]],
                          act: Act, combine: String, leakyAlpha: Double = 0.2) extends GasLayer {
  require(w.nonEmpty && w.length == aSrc.length && w.length == aDst.length, "GAT head arity mismatch")
  require(combine == "concat" || combine == "mean", s"bad combine $combine")
  val heads: Int = w.length
  val outPerHead: Int = w(0).cols
  require(aSrc.forall(_.length == outPerHead) && aDst.forall(_.length == outPerHead), "GAT attention vector dims")

  def inDim: Int = w(0).rows
  def outDim: Int = if (combine == "concat") heads * outPerHead else outPerHead
  def partialGather: Boolean = true

  /** Per-head slot width inside the payload: Wh (outPerHead) + src score (1). */
  private val slot = outPerHead + 1

  def scatterPayload(h: Array[Double]): Array[Double] = {
    val out = new Array[Double](heads * slot)
    var k = 0
    while (k < heads) {
      val wh = VecOps.vecMat(h, w(k))
      System.arraycopy(wh, 0, out, k * slot, outPerHead)
      out(k * slot + outPerHead) = VecOps.dot(wh, aSrc(k))
      k += 1
    }
    out
  }

  /** `payload` is the sender's payload followed by the receiver's; the
    * message is, per head, the sender's `Wh`, the logit and a count of 1.
    * GAT ignores edge weights.
    */
  def applyEdge(payload: Array[Double], w: Double): Array[Double] = {
    val n = heads * slot
    require(payload.length == 2 * n, s"GAT applyEdge wants src ++ dst payloads (${2 * n}), got ${payload.length}")
    val out = new Array[Double](heads * (slot + 1))
    var k = 0
    while (k < heads) {
      val off = k * slot
      val a = aDst(k)
      var sDst = 0.0
      var j = 0
      while (j < outPerHead) { sDst += payload(n + off + j) * a(j); j += 1 }
      val o = k * (slot + 1)
      System.arraycopy(payload, off, out, o, outPerHead)
      out(o + outPerHead) = lrelu(payload(off + outPerHead) + sDst)
      out(o + outPerHead + 1) = 1.0
      k += 1
    }
    out
  }

  /** A message is a one-message normaliser already. */
  def initAgg(msg: Array[Double], w: Double): Agg = SoftmaxPool(heads, msg)

  private def lrelu(x: Double): Double = if (x > 0) x else leakyAlpha * x

  def applyNode(h: Array[Double], agg: Agg): Array[Double] = {
    val gathered = agg match {
      case p: SoftmaxPool => p
      case Unioned(ms)    => ms.foldLeft(EmptyAgg: Agg) { case (acc, (m, mw)) => Agg.merge(initAgg(m, mw), acc) }
      case EmptyAgg       => EmptyAgg
      case other          => throw new IllegalStateException(s"GAT cannot consume ${other.getClass.getSimpleName}")
    }
    val selfPayload = scatterPayload(h)
    val self = initAgg(applyEdge(VecOps.concat(selfPayload, selfPayload), 1.0), 1.0)
    val all = Agg.merge(self, gathered).asInstanceOf[SoftmaxPool].s
    val perHead = Array.tabulate(heads, outPerHead)((k, j) => all(k * (slot + 1) + j) / all(k * (slot + 1) + slot))
    val combined =
      if (combine == "concat") perHead.flatten
      else {
        val out = new Array[Double](outPerHead)
        var kk = 0
        while (kk < heads) { VecOps.addInto(out, perHead(kk), 1.0 / heads); kk += 1 }
        out
      }
    act(combined)
  }

  def signature: LayerSig = LayerSig("gat", inDim, outDim, partialGather, act.name, heads, combine, readsDst = true)
}
