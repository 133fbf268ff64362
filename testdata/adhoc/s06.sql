query S06:
select t1.photo_id, t4.user_id
from in_album as t1, friends as t2, tagging as t3, album_owner as t4
where t1.album_id = 5
  and t2.user_id = 17
  and t1.photo_id = t3.photo_id
  and t3.tagger_id = t2.friend_id
  and t3.taggee_id = t2.user_id
  and t4.album_id = t1.album_id
