package repro.batch

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

/** The MR round's in-mapper combiner, called directly: its output, reduced,
  * must give every receiver what the raw records give it.
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
    val states = (0L until 5L).map(k => RoundIn(k, Array.fill(3)(rng.nextGaussian()), null, 0.0, 0L,
      if (k == 4) Array(1L, 2L) else null, if (k == 4) Array(0.5, 1.5) else null))
    val msgs = Seq.fill(60)(RoundIn(rng.nextInt(6).toLong, null, msg(rng), rng.nextDouble() + 0.5, 0L, null, null))
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

  private def assertSameReduce(layer: GasLayer, rs: Seq[RoundIn], cap: Int): Unit = {
    val fold = new RoundFold(layer, None)
    val want = reduced(fold, rs)
    val got = reduced(fold, fold.combine(rs.iterator, cap).toSeq)
    assert(got.keySet == want.keySet)
    want.foreach { case (k, b) =>
      val g = got(k)
      assert(g.key == b.key && (g.h eq b.h) && (g.dsts eq b.dsts) && (g.ws eq b.ws), s"receiver $k")
      val (x, y) = (values(g.agg), values(b.agg))
      assert(x.length == y.length)
      x.zip(y).foreach { case (a, c) => assert(math.abs(a - c) <= 1e-12, s"receiver $k: $a vs $c") }
    }
  }

  test("the combiner emits one record per distinct receiver") {
    val fold = new RoundFold(sage, None)
    val out = fold.combine(sageRecords.iterator).toSeq
    assert(out.map(_.key).sorted == sageRecords.map(_.key).distinct.sorted)
  }

  test("reducing the combiner's records equals reducing the raw records (SAGE and SoftmaxPool states)") {
    assertSameReduce(sage, sageRecords, RoundFold.CombineCap)
    assertSameReduce(SoftmaxSum, softmaxRecords, RoundFold.CombineCap)
  }

  test("a combiner that empties its map every 2 receivers is still exact") {
    val out = new RoundFold(sage, None).combine(sageRecords.iterator, cap = 2).toSeq
    assert(out.size > sageRecords.map(_.key).distinct.size, "the cap never emptied the map")
    assertSameReduce(sage, sageRecords, cap = 2)
    assertSameReduce(SoftmaxSum, softmaxRecords, cap = 2)
  }

  test("only Pooled and SoftmaxPool states travel as one message") {
    assert(RoundFold.asMessage(Pooled(Array(1.0, 2.0), 3.0)) match { case (m, w) => m.sameElements(Seq(1.0, 2.0)) && w == 3.0 })
    assert(RoundFold.asMessage(SoftmaxPool(1, Array(1.0, 0.0, 1.0))) match { case (m, w) => m.length == 3 && w == 1.0 })
    intercept[IllegalArgumentException](RoundFold.asMessage(Unioned(Nil)))
    intercept[IllegalArgumentException](RoundFold.asMessage(EmptyAgg))
  }
}
