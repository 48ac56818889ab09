package repro.batch

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

/** The MR round's fold, called directly: the in-mapper combiner's output,
  * reduced, must give every receiver what the raw records give it, and a
  * `readsDst` layer's state-first fold must give what `apply_edge` on each
  * edge gives.
  */
class RoundFoldSpec extends AnyFunSuite {

  /** A layer whose messages are [[SoftmaxPool]] states of two heads of width
    * 2 (`[v, ℓ, 1]` each) and which does not read the receiver, so its fold
    * may combine them map-side.
    */
  private object SoftmaxSum extends GasLayer {
    def inDim: Int = 8
    def outDim: Int = 8
    def partialGather: Boolean = true
    def scatterPayload(h: Array[Double]): Array[Double] = h
    def applyEdge(payload: Array[Double], w: Double): Array[Double] = payload
    def initAgg(msg: Array[Double], w: Double): Agg = SoftmaxPool(2, msg)
    def applyNode(h: Array[Double], agg: Agg): Array[Double] = h
    def signature: LayerSig = LayerSig("softmax-sum", inDim, outDim, partialGather, "id")
  }

  private val sage = Models.sage(Seq(3, 3)).layers.head

  /** States for receivers 0–4 (4 with an out-edge list), and 60 messages
    * over receivers 0–5, 5 having no state; `msg` draws one message.
    */
  private def records(msg: scala.util.Random => Array[Double]): Seq[RoundIn] = {
    val rng = new scala.util.Random(5L)
    val states = (0L until 5L).map(k => RoundIn(k, Array.fill(3)(rng.nextGaussian()), null, 0.0,
      if (k == 4) Array(1L, 2L) else null, if (k == 4) Array(0.5, 1.5) else null, null, null))
    val msgs = Seq.fill(60)(RoundIn(rng.nextInt(6).toLong, null, msg(rng), rng.nextDouble() + 0.5, null, null, null, null))
    rng.shuffle(states ++ msgs)
  }

  private val sageRecords = records(rng => Array.fill(3)(rng.nextGaussian()))
  private val softmaxRecords = records(rng => Array.tabulate(8)(i =>
    if (i % 4 == 2) 5 * rng.nextGaussian() else if (i % 4 == 3) 1.0 else rng.nextGaussian()))

  private def reduced(fold: RoundFold, rs: Seq[RoundIn]): Map[Long, RoundBuf] =
    rs.groupBy(_.key).map { case (k, group) => k -> group.foldLeft(fold.zero)(fold.reduce) }

  private def values(agg: Agg): Array[Double] = agg match {
    case Pooled(s, w)      => s :+ w
    case SoftmaxPool(_, s) => s
    case EmptyAgg          => Array.emptyDoubleArray
    case other             => fail(s"unexpected $other")
  }

  private def assertSameAggs(got: Map[Long, RoundBuf], want: Map[Long, RoundBuf]): Unit = {
    assert(got.keySet == want.keySet)
    want.foreach { case (k, b) =>
      val (x, y) = (values(got(k).agg), values(b.agg))
      assert(x.length == y.length, s"receiver $k")
      x.zip(y).foreach { case (a, c) => assert(math.abs(a - c) <= 1e-12, s"receiver $k: $a vs $c") }
    }
  }

  private def assertSameReduce(layer: GasLayer, rs: Seq[RoundIn], cap: Int,
                               hubPayload: Long => Option[Array[Double]] = _ => None): Unit = {
    val fold = new RoundFold(layer, hubPayload)
    val want = reduced(fold, rs)
    val got = reduced(fold, fold.combine(rs.iterator, cap).toSeq)
    assertSameAggs(got, want)
    want.foreach { case (k, b) =>
      val g = got(k)
      assert(g.key == b.key && (g.h eq b.h) && (g.dsts eq b.dsts) && (g.ws eq b.ws) &&
        (g.hubSrcs eq b.hubSrcs) && (g.hubWs eq b.hubWs), s"receiver $k")
    }
  }

  test("the combiner emits one record per distinct receiver") {
    val fold = new RoundFold(sage, _ => None)
    val out = fold.combine(sageRecords.iterator).toSeq
    assert(out.map(_.key).sorted == sageRecords.map(_.key).distinct.sorted)
  }

  test("reducing the combiner's records equals reducing the raw records (SAGE and SoftmaxPool states)") {
    assertSameReduce(sage, sageRecords, RoundFold.CombineCap)
    assertSameReduce(SoftmaxSum, softmaxRecords, RoundFold.CombineCap)
  }

  test("a combiner that empties its map every 2 receivers is still exact") {
    val out = new RoundFold(sage, _ => None).combine(sageRecords.iterator, cap = 2).toSeq
    assert(out.size > sageRecords.map(_.key).distinct.size, "the cap never emptied the map")
    assertSameReduce(sage, sageRecords, cap = 2)
    assertSameReduce(SoftmaxSum, softmaxRecords, cap = 2)
  }

  test("a state's hub in-edges are resolved exactly once, whether the combiner folds it or not") {
    // hubs 100 and 101 have payloads, 102 (no node row) has none
    val payloads = Map(100L -> Array(1.0, -2.0, 0.5), 101L -> Array(0.25, 0.0, 3.0))
    val hubSrcs = Array(100L, 102L, 101L, 100L)
    val hubWs = Array(0.5, 1.0, 2.0, 1.5)
    val withHubs = sageRecords.map(r => if (r.h != null && r.key % 2 == 0) r.copy(hubSrcs = hubSrcs, hubWs = hubWs) else r)
    // the same receivers with each resolvable hub in-edge sent as an edge message
    val asMessages = sageRecords ++ withHubs.filter(_.hubSrcs != null).flatMap(r =>
      hubSrcs.indices.flatMap(i => payloads.get(hubSrcs(i)).map(p =>
        RoundIn(r.key, null, sage.applyEdge(p, hubWs(i)), hubWs(i), null, null, null, null))))
    assertSameAggs(reduced(new RoundFold(sage, payloads.get), withHubs), reduced(new RoundFold(sage, _ => None), asMessages))
    Seq(RoundFold.CombineCap, 2).foreach(cap => assertSameReduce(sage, withHubs, cap, payloads.get))
  }

  private val gat = Models.gat(Seq(4, 3), heads = 2).layers.head

  /** A GAT receiver's state, 30 raw source payloads to it and, on the state,
    * four hub in-edges (hub 102 has no payload); and the `SoftmaxPool` of
    * `apply_edge(src ++ dst)` on each of those edges and the resolvable hubs.
    */
  private lazy val gatReceiver = {
    val rng = new scala.util.Random(9L)
    def vec() = Array.fill(4)(rng.nextGaussian())
    val payloads = Map(100L -> gat.scatterPayload(vec()), 101L -> gat.scatterPayload(vec()))
    val state = RoundIn(7L, vec(), null, 0.0, Array(1L), Array(1.0), Array(100L, 102L, 101L, 100L),
      Array(0.5, 1.0, 2.0, 1.5))
    val msgs = Seq.fill(30)(RoundIn(7L, null, gat.scatterPayload(vec()), rng.nextDouble() + 0.5, null, null, null, null))
    val dst = gat.scatterPayload(state.h)
    val edges = msgs.map(r => (r.m, r.w)) ++ state.hubSrcs.indices.flatMap(i =>
      payloads.get(state.hubSrcs(i)).map(_ -> state.hubWs(i)))
    val want = edges.map { case (p, w) => gat.initAgg(gat.applyEdge(VecOps.concat(p, dst), w), w) }
      .reduce(Agg.merge)
    (new RoundFold(gat, payloads.get), state, msgs, want)
  }

  test("a readsDst receiver's state, then its messages in any order, folds to the per-edge SoftmaxPool") {
    val (fold, state, msgs, want) = gatReceiver
    Seq(1L, 2L, 3L).foreach { seed =>
      val steps = (state +: new scala.util.Random(seed).shuffle(msgs)).scanLeft(fold.zero)(fold.reduce).tail
      steps.foreach(b => assert(b.agg.isInstanceOf[SoftmaxPool], s"seed $seed: ${b.agg.getClass.getSimpleName}"))
      assertSameAggs(Map(7L -> steps.last), Map(7L -> fold.zero.copy(agg = want)))
    }
  }

  test("a readsDst key with messages but no state yields no vertex record") {
    val (fold, _, msgs, _) = gatReceiver
    val b = msgs.foldLeft(fold.zero)(fold.reduce)
    assert(b.agg == EmptyAgg && fold.finish(b).isEmpty)
  }

  test("only Pooled and SoftmaxPool states travel as one message") {
    assert(RoundFold.asMessage(Pooled(Array(1.0, 2.0), 3.0)) match { case (m, w) => m.sameElements(Seq(1.0, 2.0)) && w == 3.0 })
    assert(RoundFold.asMessage(SoftmaxPool(1, Array(1.0, 0.0, 1.0))) match { case (m, w) => m.length == 3 && w == 1.0 })
    intercept[IllegalArgumentException](RoundFold.asMessage(Unioned(Nil)))
    intercept[IllegalArgumentException](RoundFold.asMessage(EmptyAgg))
  }
}
