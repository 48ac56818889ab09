package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.nn.DMat

class GatLayerSpec extends AnyFunSuite {

  private def layer(heads: Int = 2, in: Int = 3, perHead: Int = 2,
                    combine: String = "concat", act: Act = Act.Id, seed: Long = 9): GatLayer =
    GatLayer(
      Array.tabulate(heads)(k => DMat.glorot(in, perHead, seed + k)),
      Array.tabulate(heads)(k => DMat.randn(perHead, 1, 0.5, seed + 10 + k).a),
      Array.tabulate(heads)(k => DMat.randn(perHead, 1, 0.5, seed + 20 + k).a),
      act, combine)

  /** The message `u → v` as a backend builds it: `applyEdge(src ++ dst)`. */
  private def edgeMsg(l: GatLayer, hu: Array[Double], hv: Array[Double]): Array[Double] =
    l.applyEdge(VecOps.concat(l.scatterPayload(hu), l.scatterPayload(hv)), 1.0)

  private def lrelu(x: Double): Double = if (x > 0) x else 0.2 * x

  /** Textbook attention: pass one finds each head's largest logit, pass two
    * sums `e^{ℓ−max}` and the weighted values; then heads are combined.
    * `msgs` are (Wh per head, src score per head) of the senders, self first.
    */
  private def twoPass(l: GatLayer, sDst: Array[Double], msgs: Seq[(Array[Array[Double]], Array[Double])]): Array[Double] = {
    val perHead = (0 until l.heads).map { k =>
      val logits = msgs.map { case (_, s) => lrelu(s(k) + sDst(k)) }
      val mx = logits.max
      val e = logits.map(x => math.exp(x - mx))
      val den = e.sum
      (0 until l.outPerHead).map(j => msgs.indices.map(i => e(i) * msgs(i)._1(k)(j)).sum / den).toArray
    }
    if (l.combine == "concat") perHead.flatten.toArray
    else (0 until l.outPerHead).map(j => perHead.map(_(j)).sum / l.heads).toArray
  }

  private def assertRelClose(got: Array[Double], want: Array[Double], tol: Double): Unit = {
    val scale = want.map(math.abs).max
    got.zip(want).foreach { case (a, e) => assert(math.abs(a - e) <= tol * scale, s"$a vs $e") }
  }

  test("signature says partialGather and readsDst (attention is associative)") {
    // online softmax makes the reduce associative once the edge reads the receiver
    val sig = layer().signature
    assert(sig.kind == "gat" && sig.partialGather && sig.readsDst && sig.heads == 2)
  }

  test("outDim: concat multiplies by heads, mean does not") {
    assert(layer(heads = 3, perHead = 4, combine = "concat").outDim == 12)
    assert(layer(heads = 3, perHead = 4, combine = "mean").outDim == 4)
  }

  test("payload layout is [Wh, srcScore] per head") {
    val l = layer(heads = 2, in = 3, perHead = 2)
    val h = Array(1.0, 0.5, -1.0)
    val p = l.scatterPayload(h)
    assert(p.length == 2 * 3)
    val wh0 = VecOps.vecMat(h, l.w(0))
    assert(math.abs(p(0) - wh0(0)) < 1e-12 && math.abs(p(1) - wh0(1)) < 1e-12)
    assert(math.abs(p(2) - VecOps.dot(wh0, l.aSrc(0))) < 1e-12)
  }

  test("applyEdge passes the payload through unchanged") {
    // the sender's Wh passes through unchanged, followed per head by the
    // logit (its src score plus the receiver's) and a count of 1
    val l = layer()
    val src = Array(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    val dst = Array(0.5, -1.0, 9.0, -2.0, 0.25, 9.0)
    val m = l.applyEdge(VecOps.concat(src, dst), 0.3)
    assert(m.length == 8)
    (0 until 2).foreach { k =>
      assert(m(4 * k) == src(3 * k) && m(4 * k + 1) == src(3 * k + 1) && m(4 * k + 3) == 1.0)
      val sDst = VecOps.dot(dst.slice(3 * k, 3 * k + 2), l.aDst(k))
      assert(math.abs(m(4 * k + 2) - lrelu(src(3 * k + 2) + sDst)) < 1e-12)
    }
    intercept[IllegalArgumentException](l.applyEdge(src, 0.3))
  }

  test("initAgg unions") {
    // a message is already a one-message online-softmax state
    val m = Array(1.0, 2.0, 3.0, 1.0, 4.0, 5.0, 6.0, 1.0)
    layer().initAgg(m, 2.0) match {
      case SoftmaxPool(2, s) => assert(s eq m)
      case other             => fail(s"$other")
    }
  }

  test("applyNode on EmptyAgg equals pure self-attention (alpha=1)") {
    val l = layer(heads = 1, combine = "mean")
    val h = Array(1.0, -0.5, 2.0)
    val out = l.applyNode(h, EmptyAgg)
    val wh = VecOps.vecMat(h, l.w(0))
    // single message → softmax weight 1 → output is Wh itself
    out.zip(wh).foreach { case (a, e) => assert(math.abs(a - e) < 1e-12) }
  }

  test("applyNode rejects Pooled aggregates") {
    intercept[IllegalStateException](layer().applyNode(Array(1.0, 2.0, 3.0), Pooled(Array(1.0), 1.0)))
  }

  test("attention weights are a convex combination (bounded output)") {
    val l = layer(heads = 1, combine = "mean")
    val h = Array(0.1, 0.2, 0.3)
    val msgs = (1 to 5).map(i => edgeMsg(l, Array(i * 0.1, -i * 0.1, 0.05 * i), h)).toList
    val out = l.applyNode(h, Unioned(msgs.map(m => (m, 1.0))))
    // output must lie within the per-coordinate min/max of candidate Wh's
    val candidates = (l.scatterPayload(h) :: msgs).map(_.take(2))
    (0 until 2).foreach { j =>
      val lo = candidates.map(_(j)).min
      val hi = candidates.map(_(j)).max
      assert(out(j) >= lo - 1e-12 && out(j) <= hi + 1e-12)
    }
  }

  test("identical messages make attention irrelevant") {
    val l = layer(heads = 2, combine = "concat")
    val h = Array(1.0, 1.0, 1.0)
    val m = edgeMsg(l, h, h)
    // all messages equal the self message → output = Wh per head
    val out = l.applyNode(h, Unioned(List((m.clone(), 1.0), (m.clone(), 1.0))))
    val expect = Array(VecOps.vecMat(h, l.w(0)), VecOps.vecMat(h, l.w(1))).flatten
    out.zip(expect).foreach { case (a, e) => assert(math.abs(a - e) < 1e-10) }
  }

  test("mean combine averages heads of a single-message case") {
    val l = layer(heads = 2, combine = "mean")
    val h = Array(0.3, -0.7, 1.1)
    val out = l.applyNode(h, EmptyAgg)
    val expect = (0 until 2).map { j =>
      (VecOps.vecMat(h, l.w(0))(j) + VecOps.vecMat(h, l.w(1))(j)) / 2.0
    }
    out.zip(expect).foreach { case (a, e) => assert(math.abs(a - e) < 1e-12) }
  }

  test("activation applies after head combination") {
    val l = layer(heads = 1, combine = "mean", act = Act.Relu)
    val h = Array(-5.0, -5.0, -5.0)
    assert(l.applyNode(h, EmptyAgg).forall(_ >= 0.0))
  }

  test("softmax is shift-invariant: scaling payload scores consistently keeps order") {
    val l = layer(heads = 1, combine = "mean")
    val h = Array(0.5, 0.5, 0.5)
    val m1 = edgeMsg(l, Array(2.0, 0.0, 0.0), h)
    val m2 = edgeMsg(l, Array(0.0, 2.0, 0.0), h)
    val out1 = l.applyNode(h, Unioned(List((m1, 1.0), (m2, 1.0))))
    val out2 = l.applyNode(h, Unioned(List((m2, 1.0), (m1, 1.0))))
    // message order must not matter
    out1.zip(out2).foreach { case (a, b) => assert(math.abs(a - b) < 1e-12) }
  }

  test("merged online-softmax states match a two-pass softmax, also at logits near ±800") {
    Seq("concat", "mean").foreach { combine =>
      val l = layer(heads = 2, in = 3, perHead = 2, combine = combine)
      val h = Array(0.4, -0.3, 0.8)
      val self = l.scatterPayload(h)
      val sDst = Array.tabulate(2)(k => VecOps.dot(self.slice(3 * k, 3 * k + 2), l.aDst(k)))
      val rng = new java.util.Random(17)
      // sender logits: lrelu(s + sDst) lands near +800 (s = 800 − sDst), or
      // near −800 (s = −4000 − sDst), or at ordinary values
      val targets = Seq(800.0, 799.5, -4000.0, -3990.0, 0.3, -1.2, 2.5)
      val senders = targets.map { t =>
        val wh = Array.fill(2, 2)(rng.nextGaussian() * 3)
        (wh, Array.tabulate(2)(k => t + 0.1 * k - sDst(k)))
      }
      val payloads = senders.map { case (wh, s) => (0 until 2).flatMap(k => wh(k) :+ s(k)).toArray }
      assert(math.exp(800.0).isInfinite, "a naive exp-sum overflows here")
      val msgs = payloads.map(p => l.applyEdge(VecOps.concat(p, self), 1.0))
      val selfMsg = (Array.tabulate(2)(k => self.slice(3 * k, 3 * k + 2)), Array.tabulate(2)(k => self(3 * k + 2)))
      val want = twoPass(l, sDst, selfMsg +: senders)
      assert(want.forall(x => !x.isNaN && !x.isInfinite))
      // combined sender-side in two groups, as partial-gather would
      val (a, b) = msgs.splitAt(3)
      def fold(ms: Seq[Array[Double]]): Agg = ms.map(l.initAgg(_, 1.0)).reduce(Agg.merge)
      assertRelClose(l.applyNode(h, Agg.merge(fold(b), fold(a))), want, 1e-12)
      // and received as a union, as with partial-gather off
      assertRelClose(l.applyNode(h, Unioned(msgs.reverse.map(m => (m, 1.0)).toList)), want, 1e-12)
    }
  }

  test("bad combine mode rejected") {
    intercept[IllegalArgumentException](layer(combine = "sum"))
  }
}
